#include "tools/cli.hpp"

#include <chrono>
#include <csignal>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/suite.hpp"

#include "gen/bus.hpp"
#include "gen/pipeline.hpp"
#include "gen/randlogic.hpp"
#include "library/liberty_io.hpp"
#include "netlist/verilog.hpp"
#include "noise/analyzer.hpp"
#include "noise/delay_impact.hpp"
#include "noise/html_report.hpp"
#include "noise/progress.hpp"
#include "noise/report_writer.hpp"
#include "noise/telemetry.hpp"
#include "obs/log.hpp"
#include "obs/memtrack.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "net/daemon.hpp"
#include "net/serve.hpp"
#include "net/socket.hpp"
#include "parasitics/spef.hpp"
#include "session/server.hpp"
#include "session/session.hpp"
#include "sta/sta.hpp"
#include "util/strings.hpp"

namespace nw::cli {

namespace {

struct Args {
  std::string command = "analyze";  ///< analyze | explain | serve | shell | daemon
  std::string lib_path;
  std::string netlist_path;
  std::string spef_path;
  std::string arrivals_path;
  std::string report_path;
  std::string demo;
  std::string trace_path;       ///< --trace-out: Chrome trace-event JSON
  std::string stats_json_path;  ///< --stats-json: machine-readable run report
  std::string html_path;        ///< --html-report: self-contained dashboard
  std::string profile_path;     ///< --profile-out: collapsed-stack profile
  int profile_hz = 97;          ///< --profile-hz: sampling rate (0 = off)
  std::string explain_net;      ///< explain: the net to explain
  std::string listen = "unix:/tmp/noisewin.sock";  ///< daemon: --listen endpoint
  int max_connections = 32;     ///< daemon: --max-connections
  int max_queued = 16;          ///< daemon: --max-queued per connection
  int analysis_slots = 2;       ///< daemon: --analysis-slots (0 = shed all)
  int max_waiters = 8;          ///< daemon: --max-waiters behind busy slots
  int idle_timeout_s = 300;     ///< daemon: --idle-timeout seconds (0 = never)
  int sample_ms = -1;           ///< --sample-ms: telemetry period (-1 = default)
  int sample_cap = 512;         ///< --sample-cap: timeseries ring bound
  noise::Options noise_opt;
  double slow_ms = 100.0;  ///< --slow-ms: serve slow-request threshold
  bool delay_impact = false;
  bool have_mode = false;
  bool stats = false;
  bool mem_report = false;  ///< --mem-report: per-account memory table
  bool progress = false;  ///< --progress: stderr meter / serve+daemon event lines
  int verbose = 0;  ///< --verbose count: 1 = info, 2+ = debug
  bool help = false;
};

const char kUsage[] =
    "usage: noisewin --lib L.nlib --netlist D.nv --spef P.nwspef [options]\n"
    "       noisewin --demo bus|logic|logic1k|logic10k|pipeline [options]\n"
    "       noisewin explain <net> --demo bus [options]   violation provenance\n"
    "       noisewin serve --demo bus [options]   JSONL session server (stdin/stdout)\n"
    "       noisewin shell --demo bus [options]   interactive session REPL\n"
    "       noisewin daemon --demo bus [options]  concurrent JSONL socket server\n"
    "options:\n"
    "  --arrivals <file>   per-port arrival windows: '<port> <lo> <hi>' lines\n"
    "  --mode <m>          no-filtering | switching-windows | noise-windows\n"
    "  --model <m>         charge-sharing | devgan | two-pi | reduced-mna | mna-exact\n"
    "  --period <s>        clock period in seconds (default 1e-9)\n"
    "  --refine <n>        noise-on-delay refinement passes (default 0)\n"
    "  --threads <n>       analysis threads: 1 = serial (default), 0 = all cores\n"
    "  --stats             print per-phase telemetry after the report\n"
    "  --mem-report        print the per-subsystem memory accounting table\n"
    "                      (current/peak bytes and alloc/free counts per\n"
    "                      account) after the report\n"
    "  --stats-json <file> write the machine-readable run report (metrics JSON);\n"
    "                      under serve/shell: the per-session metrics at exit\n"
    "  --trace-out <file>  write a Chrome trace-event JSON (chrome://tracing,\n"
    "                      Perfetto) with per-thread span tracks; under serve\n"
    "                      each request gets its own span on the server track\n"
    "  --slow-ms <ms>      serve: requests slower than this land in the slow\n"
    "                      log (`slowlog` command, stats JSON; default 100)\n"
    "daemon options:\n"
    "  --listen <ep>       unix:<path> or tcp:<host>:<port>; tcp port 0 picks\n"
    "                      an ephemeral port (default unix:/tmp/noisewin.sock)\n"
    "  --max-connections <n> concurrent clients before accept-shed (default 32)\n"
    "  --max-queued <n>    queued request lines per connection (default 16)\n"
    "  --analysis-slots <n> concurrent analyses across clients; 0 sheds every\n"
    "                      analysis ('maintenance mode'; default 2)\n"
    "  --max-waiters <n>   admissions queued behind busy slots (default 8)\n"
    "  --idle-timeout <s>  disconnect silent clients after s seconds; 0 keeps\n"
    "                      them forever (default 300)\n"
    "  --sample-ms <ms>    live-telemetry sampling period: the daemon records\n"
    "                      queue depth/connections/latency into the bounded\n"
    "                      'timeseries' stats ring (default 250; 0 disables).\n"
    "                      Under analyze: sample RSS during the run (default\n"
    "                      off); results are bit-identical either way\n"
    "  --sample-cap <n>    telemetry samples retained (ring bound, default 512)\n"
    "  --profile-out <file> write a collapsed-stack ('folded') sampling\n"
    "                      profile of the run — one 'thread;span;span N' line\n"
    "                      per stack, ready for flamegraph tooling; results\n"
    "                      are bit-identical with profiling on or off\n"
    "  --profile-hz <n>    sampling rate for --profile-out (default 97;\n"
    "                      0 disables sampling, max 20000)\n"
    "  --verbose           more diagnostics on stderr (repeat for debug)\n"
    "  --report <file>     write the full report to a file (default: stdout)\n"
    "  --html-report <file> write the self-contained HTML noise dashboard\n"
    "  --progress          analyze: live phase meter on stderr; serve/daemon:\n"
    "                      stream {\"event\":\"progress\"} lines (a mid-analyze\n"
    "                      `cancel` is accepted with or without it)\n"
    "  --delay-impact      append the crosstalk delay-impact section\n";

std::optional<noise::AnalysisMode> parse_mode(std::string_view s) {
  if (s == "no-filtering") return noise::AnalysisMode::kNoFiltering;
  if (s == "switching-windows") return noise::AnalysisMode::kSwitchingWindows;
  if (s == "noise-windows") return noise::AnalysisMode::kNoiseWindows;
  return std::nullopt;
}

std::optional<noise::GlitchModel> parse_model(std::string_view s) {
  if (s == "charge-sharing") return noise::GlitchModel::kChargeSharing;
  if (s == "devgan") return noise::GlitchModel::kDevgan;
  if (s == "two-pi") return noise::GlitchModel::kTwoPi;
  if (s == "reduced-mna") return noise::GlitchModel::kReducedMna;
  if (s == "mna-exact") return noise::GlitchModel::kMnaExact;
  return std::nullopt;
}

std::optional<Args> parse_args(std::span<const std::string> argv, std::ostream& err) {
  Args a;
  std::size_t start = 0;
  if (!argv.empty() && !argv[0].empty() && argv[0][0] != '-') {
    if (argv[0] == "serve" || argv[0] == "shell" || argv[0] == "analyze" ||
        argv[0] == "explain" || argv[0] == "daemon") {
      a.command = argv[0];
      start = 1;
    } else {
      err << "noisewin: unknown command '" << argv[0] << "'\n";
      return std::nullopt;
    }
  }
  if (a.command == "explain") {
    // The net to explain is a positional argument right after the command.
    if (start >= argv.size() || argv[start].empty() || argv[start][0] == '-') {
      err << "noisewin: explain needs a net name\n";
      return std::nullopt;
    }
    a.explain_net = argv[start++];
  }
  for (std::size_t i = start; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    auto need_value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argv.size()) {
        err << "noisewin: missing value after " << arg << "\n";
        return std::nullopt;
      }
      return argv[++i];
    };
    if (arg == "--lib") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.lib_path = *v;
    } else if (arg == "--netlist") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.netlist_path = *v;
    } else if (arg == "--spef") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.spef_path = *v;
    } else if (arg == "--arrivals") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.arrivals_path = *v;
    } else if (arg == "--report") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.report_path = *v;
    } else if (arg == "--demo") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.demo = *v;
    } else if (arg == "--mode") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      const auto m = parse_mode(*v);
      if (!m) {
        err << "noisewin: unknown mode '" << *v << "'\n";
        return std::nullopt;
      }
      a.noise_opt.mode = *m;
      a.have_mode = true;
    } else if (arg == "--model") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      const auto m = parse_model(*v);
      if (!m) {
        err << "noisewin: unknown model '" << *v << "'\n";
        return std::nullopt;
      }
      a.noise_opt.model = *m;
    } else if (arg == "--period") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.noise_opt.clock_period = nw::parse_double(*v);
    } else if (arg == "--refine") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.noise_opt.refine_iterations = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--threads") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.noise_opt.threads = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--stats") {
      a.stats = true;
    } else if (arg == "--mem-report") {
      a.mem_report = true;
    } else if (arg == "--progress") {
      a.progress = true;
    } else if (arg == "--html-report") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.html_path = *v;
    } else if (arg == "--stats-json") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.stats_json_path = *v;
    } else if (arg == "--trace-out") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.trace_path = *v;
    } else if (arg == "--profile-out") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.profile_path = *v;
    } else if (arg == "--profile-hz") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.profile_hz = static_cast<int>(nw::parse_uint(*v));
      if (a.profile_hz > obs::Profiler::kMaxHz) {
        err << "noisewin: --profile-hz " << a.profile_hz << " too high (max "
            << obs::Profiler::kMaxHz << ")\n";
        return std::nullopt;
      }
    } else if (arg == "--slow-ms") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.slow_ms = nw::parse_double(*v);
    } else if (arg == "--listen") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.listen = *v;
    } else if (arg == "--max-connections") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.max_connections = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--max-queued") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.max_queued = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--analysis-slots") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.analysis_slots = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--max-waiters") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.max_waiters = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--idle-timeout") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.idle_timeout_s = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--sample-ms") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.sample_ms = static_cast<int>(nw::parse_uint(*v));
    } else if (arg == "--sample-cap") {
      const auto v = need_value();
      if (!v) return std::nullopt;
      a.sample_cap = static_cast<int>(nw::parse_uint(*v));
      if (a.sample_cap < 1) {
        err << "noisewin: --sample-cap must be at least 1\n";
        return std::nullopt;
      }
    } else if (arg == "--verbose" || arg == "-v") {
      ++a.verbose;
    } else if (arg == "--delay-impact") {
      a.delay_impact = true;
    } else if (arg == "--help" || arg == "-h") {
      a.help = true;
      return a;  // usage goes to stdout with exit code 0
    } else {
      err << "noisewin: unknown argument '" << arg << "'\n";
      return std::nullopt;
    }
  }
  const bool files_any =
      !a.lib_path.empty() || !a.netlist_path.empty() || !a.spef_path.empty();
  const bool files_all =
      !a.lib_path.empty() && !a.netlist_path.empty() && !a.spef_path.empty();
  // Exactly one complete input source: all three files, or a demo.
  if (a.demo.empty() ? !files_all : files_any) {
    err << "noisewin: give either --lib/--netlist/--spef or --demo\n";
    return std::nullopt;
  }
  return a;
}

/// Points the diagnostic logger at the CLI's error stream (and applies the
/// --verbose level) for the duration of the run; restores on scope exit so
/// embedding callers (tests run run_cli repeatedly) see no global drift.
class LogScope {
 public:
  LogScope(std::ostream& err, int verbose) : saved_level_(obs::log_level()) {
    obs::set_log_sink(&err);
    if (verbose >= 2) {
      obs::set_log_level(obs::LogLevel::kDebug);
    } else if (verbose == 1) {
      obs::set_log_level(obs::LogLevel::kInfo);
    }
  }
  ~LogScope() {
    obs::set_log_sink(nullptr);
    obs::set_log_level(saved_level_);
  }
  LogScope(const LogScope&) = delete;
  LogScope& operator=(const LogScope&) = delete;

 private:
  obs::LogLevel saved_level_;
};

/// Fail fast on an unwritable output destination — before analysis burns
/// minutes. Probes in append mode so an existing file is not truncated if a
/// later stage fails anyway. `flag` is the CLI flag that supplied the path
/// ("--report", "--stats-json", ...), so the error names the knob to fix.
/// The one helper covers every output flag; call sites cannot drift apart.
void require_writable(const std::string& path, const char* flag) {
  if (path.empty()) return;
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    throw std::runtime_error(std::string("cannot write ") + flag + " '" + path + "'");
  }
}

/// Open an output file validated earlier by require_writable (the state of
/// the filesystem can still have changed in between).
std::ofstream open_output(const std::string& path, const char* flag) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error(std::string("cannot write ") + flag + " '" + path + "'");
  }
  return os;
}

/// Flush and verify a finished output stream (disk-full / IO errors
/// otherwise vanish into a truncated artifact and a success exit code).
void require_written(std::ostream& os, const char* flag, const std::string& path) {
  os.flush();
  if (!os) {
    throw std::runtime_error(std::string("error writing ") + flag + " '" + path + "'");
  }
}

/// Start the sampling profiler for this run if --profile-out asked for it.
/// --profile-hz 0 keeps it off (an empty folded file is still written, so
/// scripted consumers always find their artifact).
bool start_profiler(const Args& a, const char* thread_name) {
  if (a.profile_path.empty() || a.profile_hz <= 0) return false;
  obs::profile_set_thread_name(thread_name);
  obs::Profiler::clear();
  if (!obs::Profiler::start(a.profile_hz)) {
    NW_LOG(kWarn) << "sampling profiler failed to start (already running?)";
    return false;
  }
  return true;
}

/// Stop sampling and write the collapsed-stack artifact. Safe to call when
/// the profiler never started (writes an empty, still-valid folded file).
void write_profile(const Args& a) {
  if (a.profile_path.empty()) return;
  obs::Profiler::stop();
  std::ofstream pf = open_output(a.profile_path, "--profile-out");
  // --profile-hz 0: the file stays empty even if the process aggregate
  // holds samples from an earlier in-process run (tests share a process).
  if (a.profile_hz > 0) obs::Profiler::write_folded(pf);
  require_written(pf, "--profile-out", a.profile_path);
  NW_LOG(kInfo) << "profile written to " << a.profile_path << " ("
                << obs::Profiler::total_samples() << " samples)";
}

/// A wall-time gauge appended to an exported snapshot copy (render times
/// measured outside the analyzer's own registry, e.g. html_report_ms).
obs::MetricSample timing_sample(const char* name, const char* help, double ms) {
  obs::MetricSample s;
  s.name = name;
  s.help = help;
  s.unit = "ms";
  s.kind = obs::MetricSample::Kind::kGauge;
  s.deterministic = false;
  s.value = ms;
  return s;
}

/// The --progress stderr meter: one line, rewritten in place per
/// checkpoint; finish() terminates it so later diagnostics start clean.
class StderrProgress final : public noise::ProgressSink {
 public:
  explicit StderrProgress(std::ostream& err) : err_(err) {}

  void on_progress(const noise::Progress& p) override {
    char buf[160];
    if (p.eta_s > 0.0) {
      std::snprintf(buf, sizeof buf, "\r[%s] %zu/%zu (eta %.1fs)        ",
                    p.phase, p.completed, p.total, p.eta_s);
    } else {
      std::snprintf(buf, sizeof buf, "\r[%s] %zu/%zu        ", p.phase,
                    p.completed, p.total);
    }
    err_ << buf << std::flush;
    active_ = true;
  }

  void finish() {
    if (!active_) return;
    err_ << "\n" << std::flush;
    active_ = false;
  }

 private:
  std::ostream& err_;
  bool active_ = false;
};

/// Load the design under analysis from --demo or the --lib/--netlist/--spef
/// triple. `library` is an out-parameter because the design keeps a pointer
/// into it — it must outlive (and not move under) everything downstream.
void load_inputs(const Args& a, lib::Library& library, std::optional<net::Design>& design,
                 std::optional<para::Parasitics>& parasitics, sta::Options& sta_opt) {
  sta_opt.clock_period = a.noise_opt.clock_period;
  if (!a.demo.empty()) {
    library = lib::default_library();
    gen::Generated g = [&] {
      if (a.demo == "bus") return gen::make_bus(library, {});
      if (a.demo == "logic") return gen::make_rand_logic(library, {});
      // Benchmark-suite sizes (D4/D5), so CI and clients can exercise the
      // exact designs the perf baselines are recorded on.
      if (a.demo == "logic1k") {
        return gen::make_rand_logic(library, bench::logic_config(1000));
      }
      if (a.demo == "logic10k") {
        return gen::make_rand_logic(library, bench::logic_config(10000));
      }
      if (a.demo == "pipeline") return gen::make_pipeline(library, {});
      throw std::runtime_error("unknown demo '" + a.demo +
                               "' (bus|logic|logic1k|logic10k|pipeline)");
    }();
    sta_opt = g.sta_options;
    sta_opt.clock_period = a.noise_opt.clock_period;
    design.emplace(std::move(g.design));
    parasitics.emplace(std::move(g.para));
  } else {
    std::ifstream lf(a.lib_path);
    if (!lf) throw std::runtime_error("cannot open library '" + a.lib_path + "'");
    library = lib::read_library(lf);
    std::ifstream nf(a.netlist_path);
    if (!nf) throw std::runtime_error("cannot open netlist '" + a.netlist_path + "'");
    design.emplace(net::read_netlist(nf, library));
    std::ifstream pf(a.spef_path);
    if (!pf) throw std::runtime_error("cannot open spef '" + a.spef_path + "'");
    parasitics.emplace(para::read_spef(pf, *design));
    if (!a.arrivals_path.empty()) {
      std::ifstream af(a.arrivals_path);
      if (!af) throw std::runtime_error("cannot open arrivals '" + a.arrivals_path + "'");
      std::string line;
      int lineno = 0;
      while (std::getline(af, line)) {
        ++lineno;
        const auto t = nw::trim(line);
        if (t.empty() || nw::starts_with(t, "#")) continue;
        const auto toks = nw::split(t);
        if (toks.size() < 3) {
          throw std::runtime_error("arrivals line " + std::to_string(lineno) +
                                   ": expected '<port> <lo> <hi>'");
        }
        sta_opt.input_arrivals[std::string(toks[0])] =
            Interval{nw::parse_double(toks[1]), nw::parse_double(toks[2])};
      }
    }
  }
  const auto lint = design->lint();
  for (const auto& problem : lint) NW_LOG(kWarn) << "lint: " << problem;
}

/// The `serve` and `shell` subcommands: hold the design in a session and
/// converse over the streams until EOF.
int run_session(const Args& a, std::istream& in, std::ostream& out) {
  lib::Library library;
  std::optional<net::Design> design;
  std::optional<para::Parasitics> parasitics;
  sta::Options sta_opt;
  load_inputs(a, library, design, parasitics, sta_opt);
  // Charged before the moves below: moving only transfers ownership, the
  // byte counts stay valid for the lifetime of the session.
  const obs::ScopedMemCharge design_charge(obs::MemAccountId::kDesign,
                                           design->memory_bytes());
  const obs::ScopedMemCharge para_charge(obs::MemAccountId::kParasitics,
                                         parasitics->memory_bytes());

  session::SessionConfig cfg;
  cfg.noise = a.noise_opt;
  cfg.sta = sta_opt;
  session::Session session(std::move(*design), std::move(*parasitics), cfg);

  if (!a.trace_path.empty()) {
    obs::Tracer::clear();
    obs::Tracer::set_thread_name("server");
    obs::Tracer::enable();
  }
  // Name the conversation thread up front so a profiler started later via
  // the `profile` protocol command labels its stacks "server", too.
  obs::profile_set_thread_name("server");
  start_profiler(a, "server");

  session::RequestContext reqobs(session.registry(), a.slow_ms);
  if (a.command == "serve") {
    // One daemon-style connection over stdio: unbounded queue, no gate or
    // daemon hooks, default (stdio) caps.
    session::Protocol proto(session, &reqobs);
    net::StreamServer(in, out).serve(session, proto, a.progress);
  } else {
    session::shell(session, in, out);
  }

  if (!a.trace_path.empty()) {
    obs::Tracer::disable();
    std::ofstream tf = open_output(a.trace_path, "--trace-out");
    obs::Tracer::write_chrome(tf);
    require_written(tf, "--trace-out", a.trace_path);
    NW_LOG(kInfo) << "session trace written to " << a.trace_path;
  }
  write_profile(a);

  if (!a.stats_json_path.empty()) {
    std::ofstream sf = open_output(a.stats_json_path, "--stats-json");
    // The executor section reflects the session's most recent analysis;
    // before any analysis it renders as {"enabled":false,...} from a
    // default Result.
    const noise::Result* last = session.last_result();
    static const noise::Result kEmpty;
    const std::pair<std::string, std::string> extra[] = {
        {"slowlog", reqobs.slowlog_json().dump()},
        {"executor", noise::executor_stats_json(last ? *last : kEmpty)}};
    obs::write_stats_json(sf, session.meta(), session.metrics_snapshot(), extra);
    require_written(sf, "--stats-json", a.stats_json_path);
    NW_LOG(kInfo) << "session stats written to " << a.stats_json_path;
  }
  return 0;
}

// SIGTERM/SIGINT → graceful drain. request_drain() only flips an atomic, so
// the handler is async-signal-safe; plain function pointers because
// std::signal takes no context.
net::Daemon* g_signal_daemon = nullptr;

extern "C" void daemon_signal_handler(int) {
  if (g_signal_daemon != nullptr) g_signal_daemon->request_drain();
}

/// The `daemon` subcommand: serve many concurrent socket clients from one
/// shared immutable design state until SIGTERM or a `shutdown` request.
int run_daemon(const Args& a, std::ostream& out) {
  lib::Library library;
  std::optional<net::Design> design;
  std::optional<para::Parasitics> parasitics;
  sta::Options sta_opt;
  load_inputs(a, library, design, parasitics, sta_opt);
  const obs::ScopedMemCharge design_charge(obs::MemAccountId::kDesign,
                                           design->memory_bytes());
  const obs::ScopedMemCharge para_charge(obs::MemAccountId::kParasitics,
                                         parasitics->memory_bytes());

  net::DaemonConfig cfg;
  cfg.listen = net::parse_endpoint(a.listen);
  cfg.max_connections = a.max_connections;
  cfg.max_queued = static_cast<std::size_t>(a.max_queued);
  cfg.analysis_slots = a.analysis_slots;
  cfg.max_waiters = a.max_waiters;
  cfg.idle_timeout_s = a.idle_timeout_s;
  cfg.slow_ms = a.slow_ms;
  cfg.progress_events = a.progress;
  if (a.sample_ms >= 0) cfg.sample_interval_ms = a.sample_ms;
  cfg.sample_capacity = static_cast<std::size_t>(a.sample_cap);
  cfg.session.noise = a.noise_opt;
  cfg.session.sta = sta_opt;

  if (!a.trace_path.empty()) {
    obs::Tracer::clear();
    obs::Tracer::enable();
  }
  start_profiler(a, "daemon");

  net::Daemon daemon(cfg, std::make_shared<const net::Design>(std::move(*design)),
                     std::make_shared<const para::Parasitics>(std::move(*parasitics)));
  daemon.start();
  // Readiness line: scripts wait for this before connecting (the prewarm
  // analysis inside start() can take a while on big designs).
  out << "daemon listening on " << daemon.bound_endpoint().to_string() << "\n"
      << std::flush;

  g_signal_daemon = &daemon;
  const auto prev_term = std::signal(SIGTERM, daemon_signal_handler);
  const auto prev_int = std::signal(SIGINT, daemon_signal_handler);
  daemon.wait();
  std::signal(SIGTERM, prev_term);
  std::signal(SIGINT, prev_int);
  g_signal_daemon = nullptr;

  if (!a.trace_path.empty()) {
    obs::Tracer::disable();
    std::ofstream tf = open_output(a.trace_path, "--trace-out");
    obs::Tracer::write_chrome(tf);
    require_written(tf, "--trace-out", a.trace_path);
    NW_LOG(kInfo) << "daemon trace written to " << a.trace_path;
  }
  write_profile(a);

  if (!a.stats_json_path.empty()) {
    std::ofstream sf = open_output(a.stats_json_path, "--stats-json");
    const std::pair<std::string, std::string> extra[] = {
        {"daemon", daemon.stats_section_json()},
        {"timeseries", daemon.timeseries_section_json()}};
    obs::write_stats_json(sf, daemon.meta(), daemon.registry().snapshot(), extra);
    require_written(sf, "--stats-json", a.stats_json_path);
    NW_LOG(kInfo) << "daemon stats written to " << a.stats_json_path;
  }
  out << "daemon drained: " << daemon.connections_accepted() << " connections, "
      << daemon.requests_handled() << " requests ("
      << daemon.requests_shed() << " shed)\n";
  return 0;
}

}  // namespace

int run_cli(std::span<const std::string> args, std::istream& in, std::ostream& out,
            std::ostream& err) {
  std::optional<Args> parsed;
  try {
    parsed = parse_args(args, err);
  } catch (const std::exception& e) {
    // parse_double/parse_uint throw on malformed numeric values.
    err << "noisewin: " << e.what() << "\n";
  }
  if (!parsed) {
    err << kUsage;
    return 1;
  }
  const Args& a = *parsed;
  if (a.help) {
    out << kUsage;
    return 0;
  }

  const LogScope log_scope(err, a.verbose);

  if (a.command == "serve" || a.command == "shell" || a.command == "daemon") {
    try {
      require_writable(a.trace_path, "--trace-out");
      require_writable(a.stats_json_path, "--stats-json");
      require_writable(a.profile_path, "--profile-out");
      if (a.command == "daemon") return run_daemon(a, out);
      return run_session(a, in, out);
    } catch (const std::exception& e) {
      if (!a.trace_path.empty()) obs::Tracer::disable();
      obs::Profiler::stop();
      err << "noisewin: " << e.what() << "\n";
      return 1;
    }
  }

  if (!a.trace_path.empty()) {
    obs::Tracer::clear();
    obs::Tracer::set_thread_name("main");
    obs::Tracer::enable();
  }

  try {
    // Validate output destinations up front: a typo'd --report directory
    // should fail in milliseconds, not after the analysis.
    require_writable(a.trace_path, "--trace-out");
    require_writable(a.stats_json_path, "--stats-json");
    require_writable(a.report_path, "--report");
    require_writable(a.html_path, "--html-report");
    require_writable(a.profile_path, "--profile-out");

    lib::Library library;
    std::optional<net::Design> design;
    std::optional<para::Parasitics> parasitics;
    sta::Options sta_opt;
    load_inputs(a, library, design, parasitics, sta_opt);
    const obs::ScopedMemCharge design_charge(obs::MemAccountId::kDesign,
                                             design->memory_bytes());
    const obs::ScopedMemCharge para_charge(obs::MemAccountId::kParasitics,
                                           parasitics->memory_bytes());

    const sta::Result timing = sta::run(*design, *parasitics, sta_opt);
    const obs::ScopedMemCharge sta_charge(obs::MemAccountId::kSta,
                                          sta::memory_bytes(timing));
    start_profiler(a, "main");
    // --sample-ms under analyze: record the run's memory trajectory into a
    // bounded ring (read-only sampling; results are bit-identical with it
    // on or off). Feeds the stats "timeseries" section and the dashboard's
    // #live panel.
    obs::TimeSeriesRing live_ring({"rss_mb", "peak_rss_mb", "tracked_mb"},
                                  static_cast<std::size_t>(a.sample_cap));
    std::optional<obs::Sampler> live_sampler;
    if (a.sample_ms > 0) {
      live_sampler.emplace(
          live_ring,
          [] {
            const obs::ResourceSample r = obs::sample_resources();
            const double tracked =
                static_cast<double>(obs::MemTracker::total_current());
            obs::Tracer::counter("tracked_bytes", tracked);
            return std::vector<double>{
                static_cast<double>(r.rss_bytes) / (1024.0 * 1024.0),
                static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0),
                tracked / (1024.0 * 1024.0)};
          },
          a.sample_ms);
      live_sampler->start();
    }
    std::optional<StderrProgress> meter;
    if (a.progress) meter.emplace(err);
    const noise::Result result = noise::analyze(*design, *parasitics, timing,
                                                a.noise_opt, meter ? &*meter : nullptr);
    const obs::ScopedMemCharge result_charge(obs::MemAccountId::kResult,
                                             noise::memory_bytes(result));
    if (meter) meter->finish();
    if (live_sampler) live_sampler->stop();
    // Stop sampling before report rendering so the profile covers exactly
    // the analysis; the folded artifact is written with the other outputs.
    obs::Profiler::stop();

    // The explain command renders the net's provenance instead of the full
    // report; timed so the stats snapshot can carry explain_ms.
    std::string explain_text;
    double explain_ms = 0.0;
    if (a.command == "explain") {
      const std::optional<NetId> net = design->find_net(a.explain_net);
      if (!net) throw std::runtime_error("unknown net '" + a.explain_net + "'");
      const auto t0 = std::chrono::steady_clock::now();
      explain_text = noise::explain_string(*design, a.noise_opt, result, *net);
      explain_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    }

    // The dashboard renders before the stats-json write so its wall time
    // (html_report_ms) lands in the exported snapshot.
    std::string html;
    double html_ms = 0.0;
    if (!a.html_path.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      std::ostringstream hs;
      noise::HtmlReportOptions hopt;
      if (!a.profile_path.empty()) hopt.profile = obs::Profiler::snapshot();
      if (a.sample_ms > 0) hopt.timeseries = live_ring.snapshot();
      noise::write_html_report(hs, *design, a.noise_opt, result, hopt);
      html = hs.str();
      html_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    }

    if (!a.trace_path.empty()) {
      obs::Tracer::disable();
      std::ofstream tf = open_output(a.trace_path, "--trace-out");
      obs::Tracer::write_chrome(tf);
      require_written(tf, "--trace-out", a.trace_path);
      NW_LOG(kInfo) << "trace written to " << a.trace_path;
    }
    write_profile(a);
    if (!a.stats_json_path.empty()) {
      std::ofstream sf = open_output(a.stats_json_path, "--stats-json");
      obs::MetricsSnapshot snap = result.metrics;
      if (!a.html_path.empty()) {
        snap.samples.push_back(
            timing_sample("html_report_ms", "HTML dashboard render time", html_ms));
      }
      if (a.command == "explain") {
        snap.samples.push_back(
            timing_sample("explain_ms", "provenance rendering time", explain_ms));
      }
      std::vector<std::pair<std::string, std::string>> extra = {
          {"executor", noise::executor_stats_json(result)}};
      if (a.sample_ms > 0) {
        extra.emplace_back("timeseries", live_ring.snapshot().json());
      }
      obs::write_stats_json(sf, result.run_meta, snap, extra);
      require_written(sf, "--stats-json", a.stats_json_path);
      NW_LOG(kInfo) << "stats written to " << a.stats_json_path;
    }
    if (!a.html_path.empty()) {
      std::ofstream hf = open_output(a.html_path, "--html-report");
      hf << html;
      require_written(hf, "--html-report", a.html_path);
      NW_LOG(kInfo) << "html report written to " << a.html_path;
    }

    if (a.command == "explain") {
      out << explain_text;
      if (a.mem_report) obs::write_memory_table(out);
      return 0;
    }

    std::ofstream report_file;
    std::ostream* report_os = &out;
    noise::ReportOptions ropt;
    if (!a.report_path.empty()) {
      report_file = open_output(a.report_path, "--report");
      report_os = &report_file;
      // A report file is a self-contained run record: --stats goes into it
      // too (and is still printed to stdout below).
      ropt.telemetry_footer = a.stats;
    }
    noise::write_report(*report_os, *design, a.noise_opt, result, ropt);
    if (a.delay_impact) {
      const noise::DelayImpactSummary impact =
          noise::compute_delay_impact(*design, timing, result, a.noise_opt);
      noise::write_delay_impact(*report_os, *design, impact);
    }
    if (!a.report_path.empty()) {
      require_written(report_file, "--report", a.report_path);
      out << "report written to " << a.report_path << " (" << result.violations.size()
          << " violations)\n";
    }
    if (a.stats) noise::write_stats(out, result.telemetry);
    if (a.mem_report) obs::write_memory_table(out);
    return result.violations.empty() ? 0 : 2;
  } catch (const std::exception& e) {
    if (!a.trace_path.empty()) obs::Tracer::disable();
    obs::Profiler::stop();
    err << "noisewin: " << e.what() << "\n";
    return 1;
  }
}

int run_cli(std::span<const std::string> args, std::ostream& out, std::ostream& err) {
  std::istringstream empty;
  return run_cli(args, empty, out, err);
}

}  // namespace nw::cli
