// The three workloads and the batch-pass loop the two batch ones share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "sta/sta.hpp"

namespace nwb {

/// signoff-logic100k: full-chip batch run read from files, nproc threads.
[[nodiscard]] Outcome run_signoff(const RunArgs& args);
/// eco-logic10k: in-process daemon with closed-loop ECO clients.
[[nodiscard]] Outcome run_eco(const RunArgs& args);
/// mna-bus256: the 256-bit bus under the reduced-MNA glitch model.
[[nodiscard]] Outcome run_mna(const RunArgs& args);

/// What a batch workload hands to run_batch after its set-up.
struct BatchSpec {
  nw::noise::Options noise;
  nw::sta::Options sta;
  /// One per set-up repetition. The workload times the first one, before
  /// any pass; run_batch adds the rest.
  std::vector<SetupSample> setups;
  /// Set-ups in a run, the first one included. run_batch spreads the rest
  /// evenly over the run, between passes, so that the reported median
  /// spans the same host drift as the passes.
  int setup_repeats = 1;
  /// One set-up repetition on the design a pass has just used; it may add
  /// checks to the outcome. Timed by run_batch, outside the pass time.
  std::function<void(const LoadedDesign&, Outcome&)> setup;
  /// The analysis every pass must reproduce exactly.
  ResultFingerprint reference;
  /// The report every pass must reproduce byte for byte; when empty, the
  /// first pass's report becomes it.
  std::string reference_report;
  /// Yields the design of one pass; called inside the pass timing.
  std::function<std::shared_ptr<const LoadedDesign>(SpanLog&)> load;
  std::uintmax_t spef_bytes = 0;  ///< for parasitics.read_mb_per_s
  LayerSamples setup_layers;      ///< self times of the set-up spans
};

/// Timed passes (load → STA → analyze → report → teardown) until the run's
/// seconds elapse, each checked against the reference, with the remaining
/// set-up repetitions in between. `out` already holds the set-up checks.
void run_batch(const RunArgs& args, BatchSpec& spec, Outcome& out);

/// The deterministic seed of a generated design: the suite default for
/// --seed 0, a different design for every other seed.
[[nodiscard]] inline std::uint64_t design_seed(std::uint64_t base, std::uint64_t seed) {
  return base + seed;
}

}  // namespace nwb
