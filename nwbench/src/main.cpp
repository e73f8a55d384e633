// nwbench: the repository benchmark program. One run executes one workload
// for --seconds, checks its outputs, and prints human-readable lines
// followed by one JSON line:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
// Untraced runs (--trace 0) report the end-to-end metrics under "metrics".
// Traced runs (--trace 1) leave "metrics" empty and report the median of
// every layer sample they took under "layers":{name:value}; run.py turns
// these into the per_layer metrics of BENCHMARK.json. Exit code 0 only when
// every check held.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "session/json.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: nwbench --workload signoff-logic100k|eco-logic10k|mna-bus256 --seed N\n"
    "               --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n";

nwb::RunArgs parse_args(int argc, char** argv) {
  nwb::RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = nw::parse_uint(v);
    } else if (flag == "--seconds") {
      a.seconds = nw::parse_double(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.workdir.empty()) {
    throw std::invalid_argument("--workload and --workdir are required");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  a.threads = nwb::hardware_threads();
  return a;
}

nwb::Outcome run(const nwb::RunArgs& a) {
  if (a.workload == "signoff-logic100k") return nwb::run_signoff(a);
  if (a.workload == "eco-logic10k") return nwb::run_eco(a);
  if (a.workload == "mna-bus256") return nwb::run_mna(a);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  nwb::RunArgs args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "nwbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  nwb::reference_kernel_init();
  nwb::Outcome out;
  std::filesystem::create_directories(args.workdir);
  try {
    out = run(args);
  } catch (const std::exception& e) {
    out.fail(std::string("aborted: ") + e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);

  for (const nwb::Metric& m : out.end_to_end) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }
  for (const auto& [name, value] : out.layers) {
    if (!std::isfinite(value)) out.fail("layer " + name + " is not finite");
  }
  if (out.attempted == 0) out.attempted = 1;

  std::printf("nwbench %s seed=%llu seconds=%g trace=%d threads=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.threads);
  for (const nwb::Metric& m : out.detail) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, value] : out.layers) {
    std::printf("  layer %-26s %14.6g\n", name.c_str(), value);
  }
  std::printf("  failed %llu of %llu attempted (%.3f%%)\n",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted),
              100.0 * static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  for (const std::string& p : out.problems) std::printf("  FAILED: %s\n", p.c_str());

  nw::session::Json metrics_json = nw::session::Json::object();
  for (const nwb::Metric& m : out.end_to_end) {
    if (!std::isfinite(m.value)) continue;
    nw::session::Json v = nw::session::Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics_json.set(m.name, std::move(v));
  }
  nw::session::Json layers_json = nw::session::Json::object();
  for (const auto& [name, value] : out.layers) {
    if (std::isfinite(value)) layers_json.set(name, value);
  }
  nw::session::Json line = nw::session::Json::object();
  line.set("correct", out.correct);
  line.set("attempted", static_cast<double>(out.attempted));
  line.set("failed", static_cast<double>(out.failed));
  line.set("metrics", std::move(metrics_json));
  if (args.trace) line.set("layers", std::move(layers_json));
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
