// Shared pieces of the nwbench benchmark: run arguments, statistics, the
// outcome a workload reports, bench-side tracing spans, and the design
// file round trip every workload loads its design through.
//
// Every timing is taken from outside the library, around calls to its
// public functions; nothing is instrumented inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "library/library.hpp"
#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "parasitics/rcnet.hpp"

namespace nwb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline Clock::time_point seconds_after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Linear interpolation between order statistics (the "inclusive" rule).
/// NaN for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    ///< work directory for design files and the socket
  std::string trace_out;  ///< Chrome-trace file written by traced runs
  int threads = 1;        ///< executor threads of the batch workloads (nproc)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Every failed check or non-ok response is a failed
/// operation and makes the run incorrect (the command then exits non-zero).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< the first few failure descriptions
  std::vector<Metric> end_to_end;     ///< reported by untraced runs
  /// Medians of every layer sample a traced run took, by name. run.py picks
  /// the per_layer names of BENCHMARK.json from these, with their units.
  std::map<std::string, double> layers;
  std::vector<Metric> detail;         ///< printed for people, not in the JSON line

  void fail(const std::string& what);
  /// Counts one attempted check; fails it when `ok` is false.
  void check(bool ok, const std::string& what);
};

/// Per-layer samples: one value per pass or ECO cycle, reported as medians.
class LayerSamples {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }
  [[nodiscard]] double median_of(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const {
    return samples_.count(name) != 0;
  }
  void merge(const LayerSamples& other);
  /// Merges only the names this object has no samples for.
  void merge_missing(const LayerSamples& other);
  /// Every name's median, by name.
  [[nodiscard]] std::map<std::string, double> medians() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Bench-side spans around layer calls, kept in memory and written out when
/// the run ends. One log per thread; spans of one pass or ECO cycle share
/// the op id set by begin_op().
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanLog* log_ = nullptr;
    int index_ = -1;
  };

  SpanLog(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  /// A span that closes when the returned scope ends (no-op when disabled).
  [[nodiscard]] Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  void begin_op(std::uint64_t op, bool traced) {
    op_ = op;
    enabled_ = traced;
  }

  /// Adds, per span name, each op's self time [ms]: the span's duration
  /// minus the part its child spans cover, summed within the op.
  void add_self_times(LayerSamples& out) const;
  /// Appends this log's spans as Chrome-trace "X" events (comma-separated).
  void write_chrome_events(std::ostream& os, Clock::time_point epoch, bool& first) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    int parent;
    Clock::time_point t0;
    Clock::time_point t1;
  };
  bool enabled_;
  int tid_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes every log's spans to one Chrome-trace JSON file.
void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        Clock::time_point epoch);

/// The three files a design is exchanged in.
struct DesignFiles {
  std::string lib;
  std::string netlist;
  std::string spef;
};

[[nodiscard]] DesignFiles design_files(const std::string& dir, const std::string& stem);
/// Writes library, netlist and parasitics; throws when a file cannot be written.
void write_design(const DesignFiles& files, const nw::lib::Library& library,
                  const nw::net::Design& design, const nw::para::Parasitics& para);
[[nodiscard]] std::uintmax_t file_bytes(const std::string& path);

/// A design read back from files. The design points into the library, so
/// the library is declared first (destroyed last), and whoever shares the
/// design must release it before the library goes.
struct LoadedDesign {
  std::unique_ptr<nw::lib::Library> library;
  std::shared_ptr<nw::net::Design> design;
  std::shared_ptr<nw::para::Parasitics> para;
};

/// Reads the three files through the library's parsers, one span each.
[[nodiscard]] LoadedDesign read_design(const DesignFiles& files, SpanLog& log);

/// What an analysis computed, independent of net numbering and of how the
/// report orders it: every net's combined peak and every violation, with
/// exact values.
struct ResultFingerprint {
  std::vector<std::pair<std::string, double>> peaks;  ///< by net name
  std::vector<std::string> violations;  ///< "endpoint net peak width threshold"
  bool operator==(const ResultFingerprint&) const = default;
};

[[nodiscard]] ResultFingerprint fingerprint(const nw::net::Design& design,
                                            const nw::noise::Result& r);

/// Program-reported per-pass values of one analysis (telemetry, executor,
/// work counts, result size) added as layer samples.
void add_analysis_samples(const nw::noise::Result& r, LayerSamples& out);

/// Times one run of a fixed, single-threaded reference work [ms]: random
/// reads and writes over a 16 MB table, 64k small allocations (at most
/// 1024 live) and a dependent floating-point chain. Workloads time it between their
/// operations; an op's time divided by the run's median reference time is
/// its cost in host-speed units, which stays put while the shared host
/// drifts between fast and slow phases that move every raw time together.
[[nodiscard]] double reference_kernel_ms();

/// The reference kernel's time [ms] on the host the benchmark was tuned on,
/// a fixed constant: it turns a cost in reference units back into seconds.
inline constexpr double kNominalKernelMs = 25.0;

/// One timed set-up repetition.
struct SetupSample {
  double ms = 0.0;   ///< wall time
  double ref = 0.0;  ///< wall time over the mean of the two kernel runs around it
};

/// Runs `setup` between two reference-kernel runs and times it.
[[nodiscard]] SetupSample time_setup(const std::function<void()>& setup);

/// The setup_s metric: the median of the samples' cost in reference units,
/// times kNominalKernelMs, is the set-up time in seconds on a host of the
/// nominal speed. It stays put while the shared host drifts. Adds it, the
/// raw median and the sample count to `detail`.
[[nodiscard]] double setup_seconds(const std::vector<SetupSample>& samples,
                                   std::vector<Metric>& detail);

/// Allocates and touches the reference kernel's table. Called once before
/// any workload runs, so the table is resident for the whole run and
/// peak_rss_mb() can leave it out exactly.
void reference_kernel_init();

/// Number of hardware threads (at least 1).
[[nodiscard]] int hardware_threads();

/// Peak resident set of this process [MB], without the reference kernel's
/// table, which is benchmark memory, not the program's.
[[nodiscard]] double peak_rss_mb();

}  // namespace nwb
