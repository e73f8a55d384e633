#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "library/liberty_io.hpp"
#include "netlist/verilog.hpp"
#include "obs/resource.hpp"
#include "parasitics/spef.hpp"

namespace nwb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Outcome::fail(const std::string& what) {
  ++failed;
  correct = false;
  if (problems.size() < 8) problems.push_back(what);
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

double LayerSamples::median_of(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : median(it->second);
}

void LayerSamples::merge(const LayerSamples& other) {
  for (const auto& [name, values] : other.samples_) {
    auto& dst = samples_[name];
    dst.insert(dst.end(), values.begin(), values.end());
  }
}

std::map<std::string, double> LayerSamples::medians() const {
  std::map<std::string, double> m;
  for (const auto& [name, values] : samples_) m[name] = median(values);
  return m;
}

void LayerSamples::merge_missing(const LayerSamples& other) {
  for (const auto& [name, values] : other.samples_) {
    if (!has(name)) samples_[name] = values;
  }
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  const int parent = log_->open_.empty() ? -1 : log_->open_.back();
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back({name, log_->op_, parent, Clock::now(), {}});
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].t1 = Clock::now();
  log_->open_.pop_back();
}

void SpanLog::add_self_times(LayerSamples& out) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = ms_between(spans_[i].t0, spans_[i].t1);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= ms_between(s.t0, s.t1);
  }
  // Sum per (name, op), then one sample per op.
  std::map<std::pair<std::string, std::uint64_t>, double> per_op;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    per_op[{spans_[i].name, spans_[i].op}] += self[i];
  }
  for (const auto& [key, ms] : per_op) out.add(key.first + "_ms", ms);
}

void SpanLog::write_chrome_events(std::ostream& os, Clock::time_point epoch,
                                  bool& first) const {
  for (const Span& s : spans_) {
    const double ts = std::chrono::duration<double, std::micro>(s.t0 - epoch).count();
    const double dur = std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
    os << (first ? "" : ",\n") << R"({"name":")" << s.name
       << R"(","ph":"X","pid":1,"tid":)" << tid_ << R"(,"ts":)" << ts
       << R"(,"dur":)" << dur << R"(,"args":{"op":)" << s.op << "}}";
    first = false;
  }
}

void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        Clock::time_point epoch) {
  std::ofstream f(path);
  f << "{\"traceEvents\":[\n";
  bool first = true;
  for (const SpanLog* log : logs) log->write_chrome_events(f, epoch, first);
  f << "\n]}\n";
  if (!f) throw std::runtime_error("cannot write trace file '" + path + "'");
}

DesignFiles design_files(const std::string& dir, const std::string& stem) {
  return {dir + "/" + stem + ".nlib", dir + "/" + stem + ".nv", dir + "/" + stem + ".nwspef"};
}

namespace {

template <typename WriteFn>
void write_file(const std::string& path, WriteFn&& write) {
  std::ofstream f(path);
  write(f);
  f.close();
  if (!f) throw std::runtime_error("cannot write '" + path + "'");
}

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  return f;
}

}  // namespace

void write_design(const DesignFiles& files, const nw::lib::Library& library,
                  const nw::net::Design& design, const nw::para::Parasitics& para) {
  write_file(files.lib, [&](std::ostream& os) { nw::lib::write_library(os, library); });
  write_file(files.netlist, [&](std::ostream& os) { nw::net::write_netlist(os, design); });
  write_file(files.spef, [&](std::ostream& os) { nw::para::write_spef(os, design, para); });
}

std::uintmax_t file_bytes(const std::string& path) { return std::filesystem::file_size(path); }

LoadedDesign read_design(const DesignFiles& files, SpanLog& log) {
  LoadedDesign d;
  {
    const auto s = log.span("library.read");
    std::ifstream f = open_input(files.lib);
    d.library = std::make_unique<nw::lib::Library>(nw::lib::read_library(f));
  }
  {
    const auto s = log.span("netlist.read");
    std::ifstream f = open_input(files.netlist);
    d.design = std::make_shared<nw::net::Design>(nw::net::read_netlist(f, *d.library));
  }
  {
    const auto s = log.span("parasitics.read");
    std::ifstream f = open_input(files.spef);
    d.para = std::make_shared<nw::para::Parasitics>(nw::para::read_spef(f, *d.design));
  }
  return d;
}

ResultFingerprint fingerprint(const nw::net::Design& design, const nw::noise::Result& r) {
  ResultFingerprint f;
  f.peaks.reserve(r.nets.size());
  for (std::size_t i = 0; i < r.nets.size(); ++i) {
    f.peaks.emplace_back(design.net(nw::NetId(static_cast<std::uint32_t>(i))).name,
                         r.nets[i].total_peak);
  }
  std::sort(f.peaks.begin(), f.peaks.end());
  char buf[96];
  for (const nw::noise::Violation& v : r.violations) {
    std::snprintf(buf, sizeof buf, " %a %a %a", v.peak, v.width, v.threshold);
    f.violations.push_back(design.pin_name(v.endpoint) + " " + design.net(v.net).name + buf);
  }
  return f;
}

void add_analysis_samples(const nw::noise::Result& r, LayerSamples& out) {
  const nw::noise::Telemetry& t = r.telemetry;
  out.add("noise.context_ms", t.context_seconds * 1e3);
  out.add("noise.estimate_ms", t.estimate_seconds * 1e3);
  out.add("noise.propagate_ms", t.propagate_seconds * 1e3);
  out.add("noise.check_ms", t.endpoints_seconds * 1e3);
  if (t.aggressor_pairs > 0) {
    out.add("noise.estimate_us_per_pair",
            t.estimate_seconds * 1e6 / static_cast<double>(t.aggressor_pairs));
  }
  out.add("noise.aggressor_pairs", static_cast<double>(t.aggressor_pairs));
  out.add("noise.victims_estimated", static_cast<double>(t.victims_estimated));
  out.add("noise.violations", static_cast<double>(r.violations.size()));
  out.add("noise.result_mb", static_cast<double>(nw::noise::memory_bytes(r)) / (1 << 20));

  const nw::util::UtilizationSnapshot& ex = r.executor;
  double tasks = 0, busy = 0, idle = 0, max_busy = 0;
  for (const auto& region : ex.regions) {
    tasks += static_cast<double>(region.chunks);
    max_busy += region.max_busy_s;
  }
  for (const auto& w : ex.workers) {
    busy += w.busy_s;
    idle += w.idle_s;
  }
  out.add("executor.tasks", tasks);
  out.add("executor.idle_frac", busy + idle > 0 ? idle / (busy + idle) : 0.0);
  out.add("executor.imbalance",
          busy > 0 ? max_busy * static_cast<double>(ex.threads) / busy : 1.0);
}

namespace {

std::vector<std::uint32_t>& kernel_table() {
  static std::vector<std::uint32_t> table(1u << 22);
  return table;
}

// Resident bytes the table added when it was first touched.
std::size_t g_kernel_table_rss = 0;

}  // namespace

void reference_kernel_init() {
  const std::size_t before = nw::obs::sample_resources().rss_bytes;
  (void)kernel_table();
  const std::size_t after = nw::obs::sample_resources().rss_bytes;
  g_kernel_table_rss = after > before ? after - before : 0;
}

double reference_kernel_ms() {
  std::vector<std::uint32_t>& table = kernel_table();
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < (1 << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & (table.size() - 1)];
    acc += slot;
    slot = static_cast<std::uint32_t>(x);
  }
  // 64k small allocations through a ring of 1024 live ones, so that the
  // kernel's own footprint stays far below any workload's peak RSS.
  std::vector<std::unique_ptr<std::uint64_t>> nodes(1024);
  for (std::uint64_t i = 0; i < (1u << 16); ++i) {
    nodes[i & 1023] = std::make_unique<std::uint64_t>(acc + i);
  }
  double f = 1.0;
  for (std::size_t i = 0; i < (1u << 20); ++i) {
    f = f * 1.0000001 + 1e-9 * static_cast<double>(*nodes[i & 1023] & 0xff);
  }
  const double ms = ms_between(t0, Clock::now());
  // Keeps the work observable so the compiler cannot drop it.
  return std::isfinite(f) ? ms : ms + f;
}

SetupSample time_setup(const std::function<void()>& setup) {
  const double before = reference_kernel_ms();
  const Clock::time_point t0 = Clock::now();
  setup();
  const double ms = ms_between(t0, Clock::now());
  const double after = reference_kernel_ms();
  return {ms, 2 * ms / (before + after)};
}

double setup_seconds(const std::vector<SetupSample>& samples, std::vector<Metric>& detail) {
  std::vector<double> ms, ref;
  for (const SetupSample& s : samples) {
    ms.push_back(s.ms);
    ref.push_back(s.ref);
  }
  const double setup_s = median(ref) * kNominalKernelMs / 1e3;
  detail.push_back({"setup_s", setup_s, "s"});
  detail.push_back({"setup_raw_s", median(ms) / 1e3, "s"});
  detail.push_back({"setups", static_cast<double>(samples.size()), "count"});
  return setup_s;
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  const std::size_t peak = nw::obs::sample_resources().peak_rss_bytes;
  return static_cast<double>(peak - std::min(peak, g_kernel_table_rss)) / (1 << 20);
}

}  // namespace nwb
