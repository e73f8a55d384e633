// The immutable per-run inputs of the staged analysis pipeline.
//
// Everything the stages share read-only — coupling-graph adjacency,
// per-net load caps, the levelized propagation schedule, and endpoint
// sensitivity windows — is derived exactly once per analyze() call, in the
// flat form the stage kernels read, and then handed to every stage and
// every worker thread. Nothing in here changes during a run (the
// refinement loop's inflated switching windows are the pipeline's only
// mutable per-net state and live in KernelBuffers, noise/kernels.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "obs/memtrack.hpp"
#include "parasitics/rcnet.hpp"
#include "sta/sta.hpp"
#include "util/interval.hpp"

namespace nw::noise {

struct Options;

/// Context slab storage: every slab allocates through the tracking
/// allocator bound to the "analysis_context" memory account, so the
/// context's footprint shows up exactly (current/peak/allocs/frees) in the
/// stats "memory" section.
template <class T>
using CtxVec = std::vector<T, obs::TrackedAlloc<T, obs::MemAccountId::kAnalysisContext>>;

/// A sequential endpoint to check: one data pin of one sequential cell,
/// with its sampling-sensitivity window precomputed from the clock
/// arrival, cell setup/hold, and clock options.
struct EndpointRef {
  InstId inst;
  PinId pin;         ///< the data pin itself
  NetId net;         ///< the net it samples
  Interval sensitivity;
};

struct AnalysisContext {
  double vdd = 0.0;

  // --- CSR aggressor adjacency (victim-major; row vi = net vi) ---
  // Per victim, the coupling caps to each aggressor summed in ascending
  // order and pre-filtered against Options::min_coupling_cap.
  // Sorted by aggressor id within each row, so estimation order (and
  // therefore contribution order and scan-line tie-breaking) is
  // deterministic.
  CtxVec<std::uint32_t> agg_offsets;  ///< net_count+1 row starts
  CtxVec<NetId> agg_net;              ///< aggressor id per pair slot
  CtxVec<double> agg_cap;             ///< summed coupling per pair slot [F]
  std::size_t pairs_filtered_cap = 0;  ///< pairs dropped by the threshold

  /// Total capacitive load a net presents to its driver (ground + coupling
  /// + receiver pin caps) — the gate-delay lookup load during propagation.
  CtxVec<double> load_cap;

  /// STA switching window per net (the refinement loop's baseline).
  CtxVec<Interval> switch_window;

  /// Nets driven by input ports: finalized before any gate level runs.
  CtxVec<NetId> port_nets;

  // --- levelized propagation schedule, level-major "slab positions" ---
  // Level 0 holds every sequential instance (their outputs depend on no
  // combinational fanin — Q noise is injected-only); level L >= 1 holds
  // combinational instances whose deepest combinational fanin sits at
  // level L-1, in topological order. Instances within a level touch
  // disjoint nets and may run in parallel.
  CtxVec<std::uint32_t> level_offsets;  ///< levels+1 starts into the slabs
  CtxVec<const lib::Cell*> slab_cell;
  CtxVec<std::uint8_t> slab_seq;        ///< 1 = sequential cell
  CtxVec<std::uint32_t> in_offsets;     ///< slab+1: CSR of input nets
  CtxVec<NetId> in_net;                 ///< valid input nets, pin order
  CtxVec<std::uint32_t> out_offsets;    ///< slab+1: CSR of output nets
  CtxVec<NetId> out_net;                ///< valid output nets, pin order

  /// Sequential endpoints in deterministic (instance, pin) order.
  CtxVec<EndpointRef> endpoints;

  [[nodiscard]] std::size_t net_count() const noexcept { return load_cap.size(); }
  [[nodiscard]] std::size_t pair_count() const noexcept { return agg_net.size(); }
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_offsets.empty() ? 0 : level_offsets.size() - 1;
  }
  [[nodiscard]] std::size_t level_size(std::size_t li) const noexcept {
    return level_offsets[li + 1] - level_offsets[li];
  }

  /// Derive the context. `sta_result` must match the design (checked).
  [[nodiscard]] static AnalysisContext build(const net::Design& design,
                                             const para::Parasitics& para,
                                             const sta::Result& sta_result,
                                             const Options& options);

  /// Incremental-invalidation closure: the victims whose injected-noise
  /// estimates a change to `changed` nets can affect — the changed nets
  /// themselves plus every net coupled to one through `para` (the raw
  /// coupling incidence, not the threshold-filtered adjacency, so a cap
  /// crossing min_coupling_cap in either direction still dirties its
  /// victim). Returns a sorted, duplicate-free net list. Throws
  /// std::invalid_argument naming the offending id when a changed net is
  /// outside this context's design.
  [[nodiscard]] std::vector<NetId> dirty_closure(const para::Parasitics& para,
                                                 std::span<const NetId> changed) const;
};

}  // namespace nw::noise
