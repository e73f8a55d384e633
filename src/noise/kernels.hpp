// The flat analysis kernels and the per-pass kernel operands.
//
// The stage loops (noise/analyzer.cpp) stream over the flat slabs of the
// AnalysisContext (CSR aggressor adjacency, level-major instance slabs,
// one endpoint list) plus the per-pass operands held here: packed per-pair
// estimation operands and the current pass's switching windows, as plain
// double arrays instead of heap nodes. Every floating-point expression
// lives in exactly one compiled function — the flat kernels below, the
// peaks_* spans in glitch_models, the event-scan cores in util/scanline —
// so there is one FP-contraction decision per expression in any build.
//
// Test oracles (tests/test_kernels.cpp) pin the flat code to the reference
// operations: combine_flat against the WeightedWindow scan, union_flat
// against repeated IntervalSet::add(), and whole Results against a per-net
// recomputation from public functions.
//
// The operands are packed lazily: per-pair scenario operands on first
// estimation (incremental runs pack only dirty rows — clean rows reuse
// previous contributions and never read their slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "noise/context.hpp"
#include "obs/memtrack.hpp"
#include "util/interval.hpp"
#include "util/scanline.hpp"

namespace nw::util {
class Executor;
}

namespace nw::noise {

/// Worst simultaneous sum of contributions, optionally restricted to a
/// time window (mode 3 latch checks restrict to the sensitivity window).
/// Produced by combine_flat().
struct Combined {
  double peak = 0.0;
  double width = 0.0;
  Interval alignment;
  std::vector<std::size_t> active;
};

/// Which contributions a combination sees; combine_flat() gathers each view
/// in place, without copying the contribution vector.
enum class CombineView {
  /// Every contribution, windows as recorded. `active` holds original
  /// contribution indices.
  kAll,
  /// Injected contributions only (skips fanin-propagated ones). Indices
  /// are COMPACTED — 0..m-1 in original relative order — exactly as if the
  /// view were a filtered copy, which fixes event sort tie-breaking (and
  /// with it summation order). Only `.peak` is meaningful to current
  /// callers.
  kInjectedOnly,
  /// Propagated windows widened to `everything` (provenance's
  /// "switching-windows" stage). Original indices.
  kPropagatedOpen,
};

/// Reusable gather/scan scratch for combine_flat — one per thread, so a
/// combination allocates nothing once the scratch has grown.
struct CombineScratch {
  std::vector<double> lo, hi;       ///< member intervals, flat
  std::vector<std::size_t> item;    ///< owning item per member
  std::vector<double> weight;       ///< per-item peak
  std::vector<double> width;        ///< per-item width
  std::vector<int> group;           ///< per-item constraint group (grouped only)
  std::vector<ScanEvent> events;
};

/// Flat-span combine: gathers the view's member intervals into scratch
/// spans, clips them against `restrict_to` elementwise, and runs the shared
/// event-scan core. Bit-identical to scan_max_overlap(_grouped) over the
/// same view's WeightedWindow items (tested). Thread-safe for distinct
/// scratch objects.
[[nodiscard]] Combined combine_flat(std::span<const Contribution> contributions,
                                    AnalysisMode mode, const Interval& restrict_to,
                                    const Constraints& constraints, CombineView view,
                                    CombineScratch& scratch);

namespace kernels {

/// Elementwise interval clip against [r.lo, r.hi] — the flat
/// IntervalSet::intersect(Interval). Slots left with lo[i] > hi[i] are
/// empty (including every slot when `r` itself is empty). Branch-free
/// min/max over contiguous doubles; the autovectorizer's bread and butter.
void clip(std::span<double> lo, std::span<double> hi, const Interval& r);

/// out[i] = hi[i] + (delay[i] + width[i]) — the right-edge extension of
/// Interval::dilated(0.0, peak_delay + width), batched, with the same
/// association: `after` is formed first, then added.
void extend_right(std::span<const double> hi, std::span<const double> delay,
                  std::span<const double> width, std::span<double> out);

/// Canonical union of arbitrary intervals, in place: sorts `members` by
/// (lo, hi), sweep-merges touching/overlapping neighbours, and rebuilds an
/// IntervalSet. Merged endpoints are min/max selections of the inputs —
/// no arithmetic — so the result is bit-identical to feeding the members
/// through repeated IntervalSet::add() in any order. Empty members
/// (lo > hi) are skipped like add() skips them.
[[nodiscard]] IntervalSet union_flat(std::vector<Interval>& members);

}  // namespace kernels

/// Kernel-buffer slab storage: every slab allocates through the tracking
/// allocator bound to the "kernel_buffers" memory account, so the operand
/// footprint shows up exactly (current/peak/allocs/frees) in the stats
/// "memory" section. Stateless allocator — the vectors move/swap exactly
/// like std::vector.
template <class T>
using KbVec = std::vector<T, obs::TrackedAlloc<T, obs::MemAccountId::kKernelBuffers>>;

/// The per-pass kernel operands, slot-parallel to the context's CSR
/// (per-pair slabs) or indexed by net (switching windows). The structure
/// they index lives in the AnalysisContext.
struct KernelBuffers {
  // --- per-pair estimation operands (slot-parallel to ctx.agg_net) ---
  /// Aggressor slew after the STA/default/floor rule — the raw input the
  /// MNA models take. Packed by pack_scenarios() for every model.
  KbVec<double> pair_slew;
  /// scenario_for()'s electrical abstract, packed only for the analytic
  /// models (the MNA models rebuild circuits from the design per pair).
  KbVec<double> sc_r_hold, sc_c_ground, sc_c_couple, sc_slew;

  /// The current pass's switching windows (lo > hi = never switches):
  /// seeded from ctx.switch_window, then rewritten in place by each
  /// refinement pass.
  KbVec<double> switch_lo, switch_hi;

  KernelBuffers() = default;
  /// Seed the switching windows from the context's STA baseline.
  explicit KernelBuffers(const AnalysisContext& ctx);

  /// Pack per-pair estimation operands: the slew rule for every pair, plus
  /// scenario_for()'s fields for analytic models. `dirty == nullptr` packs
  /// every row; otherwise only rows with (*dirty)[vi] != 0 (clean victims
  /// reuse previous contributions and never read their slots). Rows are
  /// independent; parallelized over victims on `exec`. Idempotent per
  /// Pipeline via scenarios_packed() — operands depend only on immutable
  /// design/parasitics/STA state, never on refinement windows.
  void pack_scenarios(const AnalysisContext& ctx, const net::Design& design,
                      const para::Parasitics& para, const sta::Result& sta,
                      const Options& opt, const std::vector<char>* dirty,
                      util::Executor& exec);

  [[nodiscard]] bool scenarios_packed() const noexcept { return packed_; }

 private:
  bool packed_ = false;
};

}  // namespace nw::noise
