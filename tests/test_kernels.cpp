// The flat analysis path (noise/context.hpp, noise/kernels.hpp): the
// context's CSR adjacency must equal the raw coupling sums, the flat
// kernels must reproduce the reference operations bit-for-bit, and — the
// contract everything else rests on — every net and endpoint of a Result
// must match a per-net oracle built from public functions, on random
// designs, across modes, thread counts, and full / incremental /
// refinement runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/context.hpp"
#include "noise/kernels.hpp"
#include "sta/sta.hpp"
#include "util/executor.hpp"
#include "util/scanline.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

gen::Generated bus_case(const lib::Library& library, std::size_t seed) {
  gen::BusConfig cfg;
  cfg.bits = 32;
  cfg.segments = 3;
  cfg.coupling_adj = 5 * FF;
  cfg.stagger_groups = 4;
  cfg.seed = seed;
  return gen::make_bus(library, cfg);
}

gen::Generated logic_case(const lib::Library& library, std::size_t seed) {
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 12;
  cfg.gates = 300;
  cfg.levels = 6;
  cfg.coupling_prob = 0.6;
  cfg.dff_fraction = 0.3;
  cfg.seed = seed;
  return gen::make_rand_logic(library, cfg);
}

/// Exact equality of everything deterministic in a Result — nets,
/// violations, provenance, and the telemetry work counters. Doubles
/// compare with ==, never NEAR: a 1-ulp drift is a failure.
void expect_identical(const Result& a, const Result& b,
                      bool compare_work_counters = true) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    SCOPED_TRACE("net " + std::to_string(i));
    const NetNoise& x = a.nets[i];
    const NetNoise& y = b.nets[i];
    EXPECT_EQ(x.injected_peak, y.injected_peak);
    EXPECT_EQ(x.propagated_peak, y.propagated_peak);
    EXPECT_EQ(x.total_peak, y.total_peak);
    EXPECT_EQ(x.width, y.width);
    EXPECT_TRUE(x.window == y.window);
    EXPECT_TRUE(x.worst_alignment == y.worst_alignment);
    EXPECT_EQ(x.aggressor_count, y.aggressor_count);
    EXPECT_EQ(x.filtered_temporal, y.filtered_temporal);
    ASSERT_EQ(x.contributions.size(), y.contributions.size());
    for (std::size_t c = 0; c < x.contributions.size(); ++c) {
      EXPECT_EQ(x.contributions[c].aggressor, y.contributions[c].aggressor);
      EXPECT_EQ(x.contributions[c].from_net, y.contributions[c].from_net);
      EXPECT_EQ(x.contributions[c].peak, y.contributions[c].peak);
      EXPECT_EQ(x.contributions[c].width, y.contributions[c].width);
      EXPECT_TRUE(x.contributions[c].window == y.contributions[c].window);
      EXPECT_EQ(x.contributions[c].in_worst, y.contributions[c].in_worst);
    }
  }
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    SCOPED_TRACE("violation " + std::to_string(i));
    EXPECT_EQ(a.violations[i].endpoint, b.violations[i].endpoint);
    EXPECT_EQ(a.violations[i].net, b.violations[i].net);
    EXPECT_EQ(a.violations[i].peak, b.violations[i].peak);
    EXPECT_EQ(a.violations[i].width, b.violations[i].width);
    EXPECT_EQ(a.violations[i].threshold, b.violations[i].threshold);
    EXPECT_TRUE(a.violations[i].sensitivity == b.violations[i].sensitivity);
    EXPECT_EQ(a.violations[i].temporal, b.violations[i].temporal);
  }
  ASSERT_EQ(a.provenance.size(), b.provenance.size());
  for (std::size_t i = 0; i < a.provenance.size(); ++i) {
    SCOPED_TRACE("provenance " + std::to_string(i));
    const Provenance& x = a.provenance[i];
    const Provenance& y = b.provenance[i];
    EXPECT_EQ(x.endpoint, y.endpoint);
    EXPECT_EQ(x.net, y.net);
    EXPECT_EQ(x.peak_unfiltered, y.peak_unfiltered);
    EXPECT_EQ(x.peak_switching, y.peak_switching);
    EXPECT_EQ(x.peak_noise_window, y.peak_noise_window);
    EXPECT_EQ(x.peak_in_sensitivity, y.peak_in_sensitivity);
    EXPECT_EQ(x.culled_by, y.culled_by);
    EXPECT_TRUE(x.alignment == y.alignment);
    ASSERT_EQ(x.shares.size(), y.shares.size());
    for (std::size_t s = 0; s < x.shares.size(); ++s) {
      EXPECT_EQ(x.shares[s].aggressor, y.shares[s].aggressor);
      EXPECT_EQ(x.shares[s].from_net, y.shares[s].from_net);
      EXPECT_EQ(x.shares[s].peak, y.shares[s].peak);
      EXPECT_EQ(x.shares[s].coupling_cap, y.shares[s].coupling_cap);
      EXPECT_TRUE(x.shares[s].overlap == y.shares[s].overlap);
      EXPECT_EQ(x.shares[s].verdict, y.shares[s].verdict);
    }
    ASSERT_EQ(x.path.size(), y.path.size());
    for (std::size_t s = 0; s < x.path.size(); ++s) {
      EXPECT_EQ(x.path[s].net, y.path[s].net);
      EXPECT_EQ(x.path[s].peak, y.path[s].peak);
      EXPECT_EQ(x.path[s].width, y.path[s].width);
    }
  }
  EXPECT_EQ(a.endpoints_checked, b.endpoints_checked);
  EXPECT_EQ(a.noisy_nets, b.noisy_nets);
  EXPECT_EQ(a.aggressors_considered, b.aggressors_considered);
  EXPECT_EQ(a.aggressors_filtered_temporal, b.aggressors_filtered_temporal);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.iteration_violations, b.iteration_violations);
  EXPECT_EQ(a.endpoint_slacks, b.endpoint_slacks);
  // Telemetry work counters (wall times are the only nondeterministic
  // fields). Skipped when comparing a full run to an incremental one:
  // reusing estimates is the point, so victims_reused/aggressor_pairs
  // differ.
  if (!compare_work_counters) return;
  EXPECT_EQ(a.telemetry.victims_estimated, b.telemetry.victims_estimated);
  EXPECT_EQ(a.telemetry.victims_reused, b.telemetry.victims_reused);
  EXPECT_EQ(a.telemetry.aggressor_pairs, b.telemetry.aggressor_pairs);
  EXPECT_EQ(a.telemetry.pairs_filtered_cap, b.telemetry.pairs_filtered_cap);
  EXPECT_EQ(a.telemetry.levels, b.telemetry.levels);
  EXPECT_EQ(a.telemetry.endpoints, b.telemetry.endpoints);
}

/// The raw adjacency of one victim: aggressor id -> coupling caps summed
/// in coupling storage order (an ordered map, so iteration is by id).
std::map<NetId::value_type, double> raw_adjacency(const para::Parasitics& para,
                                                  NetId victim) {
  std::map<NetId::value_type, double> row;
  for (const auto ci : para.couplings_of(victim)) {
    const auto& cc = para.coupling(ci);
    row[cc.other_net(victim).value()] += cc.c;
  }
  return row;
}

// ---------------------------------------------------------------------------
// Context and kernel-buffer structure
// ---------------------------------------------------------------------------

TEST(KernelBuffers, CsrMirrorsContextAdjacency) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = logic_case(library, 11);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  const AnalysisContext ctx = AnalysisContext::build(g.design, g.para, timing, o);

  const std::size_t n = g.design.net_count();
  ASSERT_EQ(ctx.agg_offsets.size(), n + 1);
  EXPECT_EQ(ctx.agg_offsets.front(), 0u);
  EXPECT_EQ(ctx.agg_offsets.back(), ctx.pair_count());
  ASSERT_EQ(ctx.agg_cap.size(), ctx.pair_count());
  std::size_t filtered = 0;
  for (std::size_t vi = 0; vi < n; ++vi) {
    SCOPED_TRACE("victim " + std::to_string(vi));
    std::uint32_t slot = ctx.agg_offsets[vi];
    for (const auto& [agg, cap] : raw_adjacency(g.para, NetId{vi})) {
      if (cap < o.min_coupling_cap) {
        ++filtered;
        continue;
      }
      ASSERT_LT(slot, ctx.agg_offsets[vi + 1]);
      EXPECT_EQ(ctx.agg_net[slot], NetId{agg});
      EXPECT_EQ(ctx.agg_cap[slot], cap);
      ++slot;
    }
    EXPECT_EQ(slot, ctx.agg_offsets[vi + 1]);
  }
  EXPECT_EQ(ctx.pairs_filtered_cap, filtered);
  ASSERT_EQ(ctx.load_cap.size(), n);

  // Level slabs cover every instance exactly once, level-major.
  ASSERT_GE(ctx.level_offsets.size(), 2u);
  EXPECT_EQ(ctx.level_offsets.front(), 0u);
  EXPECT_EQ(ctx.level_offsets.back(), g.design.instance_count());
  EXPECT_EQ(ctx.slab_cell.size(), g.design.instance_count());
  EXPECT_EQ(ctx.slab_seq.size(), g.design.instance_count());
  EXPECT_EQ(ctx.in_offsets.size(), g.design.instance_count() + 1);
  EXPECT_EQ(ctx.out_offsets.size(), g.design.instance_count() + 1);
  // Level 0 holds exactly the sequential instances.
  EXPECT_EQ(ctx.level_size(0), g.design.sequentials().size());
  for (std::size_t pos = 0; pos < ctx.slab_seq.size(); ++pos) {
    EXPECT_EQ(ctx.slab_seq[pos] != 0, pos < ctx.level_size(0)) << pos;
  }

  // One endpoint list: every valid data pin of every sequential.
  std::size_t data_pins = 0;
  for (const InstId s : g.design.sequentials()) {
    const lib::Cell& cell = g.design.cell_of(s);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      if (g.design.pin(g.design.instance(s).pins[pi]).net.valid()) ++data_pins;
    }
  }
  EXPECT_EQ(ctx.endpoints.size(), data_pins);
}

TEST(KernelBuffers, DirtyRowPackMatchesFullPack) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library, 5);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  const AnalysisContext ctx = AnalysisContext::build(g.design, g.para, timing, o);
  util::Executor exec(1);

  KernelBuffers full(ctx);
  full.pack_scenarios(ctx, g.design, g.para, timing, o, nullptr, exec);
  ASSERT_TRUE(full.scenarios_packed());

  // Pack only every third row; those rows' slots must match the full pack
  // slot-for-slot (clean rows are never read, so their contents are free).
  std::vector<char> dirty(g.design.net_count(), 0);
  for (std::size_t vi = 0; vi < dirty.size(); vi += 3) dirty[vi] = 1;
  KernelBuffers partial(ctx);
  partial.pack_scenarios(ctx, g.design, g.para, timing, o, &dirty, exec);

  for (std::size_t vi = 0; vi < dirty.size(); ++vi) {
    if (!dirty[vi]) continue;
    for (std::uint32_t s = ctx.agg_offsets[vi]; s < ctx.agg_offsets[vi + 1]; ++s) {
      EXPECT_EQ(partial.pair_slew[s], full.pair_slew[s]);
      EXPECT_EQ(partial.sc_r_hold[s], full.sc_r_hold[s]);
      EXPECT_EQ(partial.sc_c_ground[s], full.sc_c_ground[s]);
      EXPECT_EQ(partial.sc_c_couple[s], full.sc_c_couple[s]);
      EXPECT_EQ(partial.sc_slew[s], full.sc_slew[s]);
    }
  }
}

// ---------------------------------------------------------------------------
// Flat kernels vs reference operations
// ---------------------------------------------------------------------------

TEST(UnionFlat, MatchesIncrementalAddOnRandomSets) {
  std::mt19937 rng(2026);
  std::uniform_real_distribution<double> t0(-1.0, 1.0);
  std::uniform_real_distribution<double> len(-0.2, 0.5);  // negative = empty
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng() % 40;
    std::vector<Interval> members(n);
    IntervalSet reference;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = t0(rng);
      members[i] = Interval{lo, lo + len(rng)};
      reference.add(members[i]);
    }
    const IntervalSet flat = kernels::union_flat(members);
    EXPECT_TRUE(flat == reference) << "trial " << trial;
  }
}

std::vector<Contribution> random_contributions(std::mt19937& rng, std::size_t n,
                                               bool with_propagated) {
  std::uniform_real_distribution<double> t0(0.0, 1e-9);
  std::uniform_real_distribution<double> len(10e-12, 400e-12);
  std::uniform_real_distribution<double> pk(0.02, 0.5);
  std::vector<Contribution> cs(n);
  for (std::size_t i = 0; i < n; ++i) {
    cs[i].peak = pk(rng);
    cs[i].width = len(rng);
    if (with_propagated && rng() % 4 == 0) {
      cs[i].aggressor = NetId{};  // propagated from fanin
      cs[i].from_net = NetId{i + 100};
    } else {
      cs[i].aggressor = NetId{i + 1};
    }
    IntervalSet w;
    const std::size_t pieces = 1 + rng() % 2;
    for (std::size_t p = 0; p < pieces; ++p) {
      const double lo = t0(rng);
      w.add(Interval{lo, lo + len(rng)});
    }
    cs[i].window = w;
  }
  return cs;
}

/// The reference combination: the no-filtering short-circuit, restricted
/// WeightedWindow items, the (grouped) scan, and the active set's max
/// width — built on IntervalSet and the WeightedWindow scan entry points.
Combined scalar_combine(std::span<const Contribution> cs, AnalysisMode mode,
                        const Interval& restrict_to, const Constraints& constraints) {
  Combined out;
  if (mode == AnalysisMode::kNoFiltering && constraints.empty()) {
    // Every window coincides: the sum of all peaks, taken in ascending
    // order as the scan adds simultaneous opens.
    std::vector<double> peaks;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      peaks.push_back(cs[i].peak);
      out.width = std::max(out.width, cs[i].width);
      out.active.push_back(i);
    }
    std::sort(peaks.begin(), peaks.end());
    for (const double p : peaks) out.peak += p;
    out.alignment = Interval::everything();
    return out;
  }
  std::vector<WeightedWindow> items;
  std::vector<int> groups;
  for (const Contribution& c : cs) {
    WeightedWindow ww;
    ww.weight = c.peak;
    const IntervalSet& win = mode == AnalysisMode::kNoFiltering
                                 ? IntervalSet::everything()
                                 : c.window;
    ww.window = restrict_to == Interval::everything() ? win
                                                      : win.intersect(restrict_to);
    items.push_back(std::move(ww));
    groups.push_back(c.aggressor.valid() ? constraints.group_of(c.aggressor) : -1);
  }
  const ScanResult scan = constraints.empty()
                              ? scan_max_overlap(items)
                              : scan_max_overlap_grouped(items, groups);
  out.peak = scan.best_sum;
  out.alignment = scan.best_interval;
  out.active = scan.active;
  for (const std::size_t i : scan.active) out.width = std::max(out.width, cs[i].width);
  return out;
}

void expect_combined_eq(const Combined& a, const Combined& b) {
  EXPECT_EQ(a.peak, b.peak);
  EXPECT_EQ(a.width, b.width);
  EXPECT_TRUE(a.alignment == b.alignment);
  EXPECT_EQ(a.active, b.active);
}

TEST(CombineFlat, MatchesScalarScanAcrossViewsAndRestricts) {
  std::mt19937 rng(7);
  CombineScratch scratch;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng() % 24;
    const auto cs = random_contributions(rng, n, /*with_propagated=*/true);
    Constraints constraints;
    if (trial % 2 == 1 && n >= 4) {
      const NetId group[] = {NetId{1}, NetId{2}, NetId{3}};
      constraints.add_mutex_group(group);
    }
    const Interval restricts[] = {Interval::everything(),
                                  Interval{0.2e-9, 0.9e-9},
                                  Interval{1.0, 0.0} /* empty */};
    for (const Interval& r : restricts) {
      for (const AnalysisMode mode :
           {AnalysisMode::kNoFiltering, AnalysisMode::kNoiseWindows}) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        // kAll: every contribution, original indices.
        expect_combined_eq(
            combine_flat(cs, mode, r, constraints, CombineView::kAll, scratch),
            scalar_combine(cs, mode, r, constraints));
        // kInjectedOnly: the filtered-copy reference with compacted indices.
        std::vector<Contribution> injected;
        for (const Contribution& c : cs) {
          if (!c.is_propagated()) injected.push_back(c);
        }
        expect_combined_eq(combine_flat(cs, mode, r, constraints,
                                        CombineView::kInjectedOnly, scratch),
                           scalar_combine(injected, mode, r, constraints));
        // kPropagatedOpen: propagated members unconstrained, original indices.
        std::vector<Contribution> opened = {cs.begin(), cs.end()};
        for (Contribution& c : opened) {
          if (c.is_propagated()) c.window = IntervalSet(Interval::everything());
        }
        expect_combined_eq(combine_flat(cs, mode, r, constraints,
                                        CombineView::kPropagatedOpen, scratch),
                           scalar_combine(opened, mode, r, constraints));
      }
    }
  }
}


// ---------------------------------------------------------------------------
// Per-net oracle (the end-to-end property test)
// ---------------------------------------------------------------------------
//
// Each net of a Result is recomputed in isolation from public functions:
// its injected contributions from scenario_for + estimate per coupling
// pair, its propagated contribution from the Result's own fanin values
// through IntervalSet::shifted/dilated, its combination with
// scalar_combine, its window with IntervalSet::add, and every endpoint
// check from the net's recorded contributions. Reading fanin values from
// the Result keeps each net's check local, so a wrong net is reported
// where it goes wrong instead of everywhere downstream.

/// The inputs one analysis pass ran on.
struct OracleInputs {
  const net::Design& design;
  const para::Parasitics& para;
  const sta::Result& timing;
  const Options& opt;
  /// The pass's switching windows: STA windows, or a refinement pass's
  /// inflated ones (see inflated_windows).
  std::vector<Interval> windows;
};

std::vector<Interval> sta_windows(const sta::Result& timing) {
  std::vector<Interval> w;
  for (const sta::NetTiming& t : timing.nets) w.push_back(t.window);
  return w;
}

/// The windows the pass after `prev` runs on: each switching net's STA
/// window widened by its glitch width (refinement's noise-on-delay rule).
std::vector<Interval> inflated_windows(const sta::Result& timing, const Options& o,
                                       const Result& prev) {
  std::vector<Interval> w = sta_windows(timing);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i].is_empty() || prev.nets[i].total_peak < o.min_peak) continue;
    w[i] = w[i].dilated(0.0, prev.nets[i].width);
  }
  return w;
}

struct OracleNet {
  std::vector<Contribution> contributions;
  std::size_t aggressor_count = 0;
  std::size_t filtered_temporal = 0;
};

/// Injected contributions, in aggressor-id order.
OracleNet oracle_injected(const OracleInputs& in, NetId victim) {
  OracleNet out;
  const double vdd = in.design.library().vdd();
  for (const auto& [agg_value, cap] : raw_adjacency(in.para, victim)) {
    if (cap < in.opt.min_coupling_cap) continue;
    const NetId agg{agg_value};
    ++out.aggressor_count;
    const sta::NetTiming& at = in.timing.nets[agg.index()];
    const double slew =
        std::max(at.slew_min > 0.0 ? at.slew_min : in.opt.default_slew, 1e-12);
    const GlitchEstimate g =
        in.opt.model == GlitchModel::kReducedMna
            ? estimate_reduced(in.design, in.para, victim, agg, slew, vdd)
            : estimate(in.opt.model,
                       scenario_for(in.design, in.para, victim, agg, slew, vdd));
    if (g.peak < in.opt.min_peak) continue;
    Contribution c;
    c.aggressor = agg;
    c.peak = g.peak;
    c.width = g.width;
    if (in.opt.mode == AnalysisMode::kNoFiltering) {
      c.window = IntervalSet::everything();
    } else {
      const Interval sw = in.windows[agg.index()];
      if (sw.is_empty()) {
        ++out.filtered_temporal;
        continue;
      }
      c.window = IntervalSet(sw.dilated(0.0, g.peak_delay + g.width));
    }
    out.contributions.push_back(std::move(c));
  }
  return out;
}

/// The contribution `out`'s combinational driver propagates from its worst
/// fanin (first maximum in pin order), read from the Result.
std::optional<Contribution> oracle_propagated(const OracleInputs& in, const Result& r,
                                              NetId out) {
  const net::Net& n = in.design.net(out);
  if (!n.driver.valid()) return std::nullopt;
  const net::Pin& dp = in.design.pin(n.driver);
  if (dp.kind != net::PinKind::kInstance) return std::nullopt;
  const lib::Cell& cell = in.design.cell_of(dp.inst);
  if (cell.is_sequential() || cell.arcs.empty()) return std::nullopt;
  const net::Instance& inst = in.design.instance(dp.inst);
  const NetNoise* worst = nullptr;
  NetId worst_net;
  for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
    if (cell.pins[pi].dir != lib::PinDir::kInput) continue;
    const NetId fan = in.design.pin(inst.pins[pi]).net;
    if (!fan.valid()) continue;
    if (r.nets[fan.index()].total_peak > (worst ? worst->total_peak : 0.0)) {
      worst = &r.nets[fan.index()];
      worst_net = fan;
    }
  }
  if (worst == nullptr || worst->total_peak < in.opt.min_peak) return std::nullopt;
  const double out_peak = cell.propagation.out_peak.lookup(worst->total_peak, worst->width);
  if (out_peak < in.opt.min_peak) return std::nullopt;
  const double out_width =
      cell.propagation.out_width.lookup(worst->total_peak, worst->width);
  double load = in.para.total_cap(out, /*miller=*/1.0);
  for (const PinId p : n.loads) load += in.design.pin_cap(p);
  const double gate_delay = cell.arcs.front().delay_rise.lookup(worst->width, load);
  Contribution c;
  c.from_net = worst_net;
  c.peak = out_peak;
  c.width = out_width;
  c.window = in.opt.mode == AnalysisMode::kNoiseWindows
                 ? worst->window.shifted(gate_delay)
                       .dilated(0.0, std::max(out_width - worst->width, 0.0))
                 : IntervalSet::everything();
  return c;
}

/// Nets the propagation schedule finalizes: port- and instance-driven.
bool finalized(const net::Design& design, NetId id) {
  const PinId d = design.net(id).driver;
  return d.valid() && design.pin(d).kind != net::PinKind::kOutputPort;
}

void expect_net_matches_oracle(const OracleInputs& in, const Result& r, NetId id) {
  const NetNoise& nn = r.nets[id.index()];
  OracleNet want = oracle_injected(in, id);
  EXPECT_EQ(nn.aggressor_count, want.aggressor_count);
  EXPECT_EQ(nn.filtered_temporal, want.filtered_temporal);
  const bool final_net = finalized(in.design, id);
  if (final_net) {
    if (auto prop = oracle_propagated(in, r, id)) {
      want.contributions.push_back(std::move(*prop));
    }
  }
  const std::vector<Contribution>& cs = want.contributions;
  ASSERT_EQ(nn.contributions.size(), cs.size());
  for (std::size_t c = 0; c < cs.size(); ++c) {
    SCOPED_TRACE("contribution " + std::to_string(c));
    EXPECT_EQ(nn.contributions[c].aggressor, cs[c].aggressor);
    EXPECT_EQ(nn.contributions[c].from_net, cs[c].from_net);
    EXPECT_EQ(nn.contributions[c].peak, cs[c].peak);
    EXPECT_EQ(nn.contributions[c].width, cs[c].width);
    EXPECT_TRUE(nn.contributions[c].window == cs[c].window);
  }
  if (!final_net) {
    EXPECT_EQ(nn.total_peak, 0.0);
    return;
  }
  std::vector<Contribution> injected;
  double propagated_peak = 0.0;
  for (const Contribution& c : cs) {
    if (c.is_propagated()) {
      propagated_peak = std::max(propagated_peak, c.peak);
    } else {
      injected.push_back(c);
    }
  }
  const Constraints& k = in.opt.constraints;
  EXPECT_EQ(nn.injected_peak,
            scalar_combine(injected, in.opt.mode, Interval::everything(), k).peak);
  const Combined total = scalar_combine(cs, in.opt.mode, Interval::everything(), k);
  EXPECT_EQ(nn.total_peak, total.peak);
  EXPECT_EQ(nn.width, total.width);
  EXPECT_TRUE(nn.worst_alignment == total.alignment);
  EXPECT_EQ(nn.propagated_peak, propagated_peak);
  std::vector<char> active(cs.size(), 0);
  for (const std::size_t i : total.active) active[i] = 1;
  for (std::size_t c = 0; c < cs.size(); ++c) {
    EXPECT_EQ(nn.contributions[c].in_worst, active[c] != 0) << "contribution " << c;
  }
  IntervalSet window;
  if (in.opt.mode == AnalysisMode::kNoFiltering) {
    window = IntervalSet::everything();
  } else {
    for (const Contribution& c : cs) window.add(c.window);
  }
  EXPECT_TRUE(nn.window == window);
}

/// Sequential data pins in (instance, pin) order, then primary outputs:
/// each endpoint's slack, and a violation exactly where the check fails.
void expect_checks_match_oracle(const OracleInputs& in, const Result& r) {
  const net::Design& d = in.design;
  const Options& o = in.opt;
  const double vdd = d.library().vdd();
  std::size_t ep = 0;
  std::size_t vi = 0;
  const auto check = [&](PinId pin, NetId net, double peak, double width,
                         double threshold, const Interval& sens, bool temporal) {
    SCOPED_TRACE("endpoint " + std::to_string(ep));
    ASSERT_LT(ep, r.endpoint_slacks.size());
    EXPECT_EQ(r.endpoint_slacks[ep++], threshold - peak);
    if (peak < threshold || !temporal) return;
    ASSERT_LT(vi, r.violations.size());
    const Violation& v = r.violations[vi++];
    EXPECT_EQ(v.endpoint, pin);
    EXPECT_EQ(v.net, net);
    EXPECT_EQ(v.peak, peak);
    EXPECT_EQ(v.width, width);
    EXPECT_EQ(v.threshold, threshold);
    EXPECT_TRUE(v.sensitivity == sens);
  };
  for (std::size_t si = 0; si < d.sequentials().size(); ++si) {
    const InstId s = d.sequentials()[si];
    const lib::Cell& cell = d.cell_of(s);
    const Interval clk =
        si < in.timing.clock_arrivals.size() && !in.timing.clock_arrivals[si].is_empty()
            ? in.timing.clock_arrivals[si]
            : Interval{0.0, 0.0};
    const Interval sens =
        (cell.kind == lib::CellKind::kLatch
             ? Interval{clk.lo - cell.setup,
                        clk.hi + o.latch_duty * o.clock_period + cell.hold}
             : Interval{clk.lo + o.clock_period - cell.setup,
                        clk.hi + o.clock_period + cell.hold})
            .dilated(o.clock_uncertainty, o.clock_uncertainty);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const PinId pin = d.instance(s).pins[pi];
      const NetId net = d.pin(pin).net;
      if (!net.valid()) continue;
      const NetNoise& nn = r.nets[net.index()];
      double peak = nn.total_peak;
      double width = nn.width;
      bool temporal = true;
      if (o.mode == AnalysisMode::kNoiseWindows) {
        const Combined c = scalar_combine(nn.contributions, o.mode, sens, o.constraints);
        peak = c.peak;
        width = c.width;
        temporal = peak > 0.0;
      }
      check(pin, net, peak, width, cell.immunity.threshold(width), sens, temporal);
    }
  }
  for (const PinId p : d.output_ports()) {
    const NetId net = d.pin(p).net;
    if (!net.valid()) continue;
    const NetNoise& nn = r.nets[net.index()];
    check(p, net, nn.total_peak, nn.width, o.po_immunity_frac * vdd,
          Interval::everything(), true);
  }
  EXPECT_EQ(ep, r.endpoint_slacks.size());
  EXPECT_EQ(ep, r.endpoints_checked);
  EXPECT_EQ(vi, r.violations.size());

  std::size_t noisy = 0;
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const NetNoise& nn = r.nets[i];
    if (nn.total_peak < o.min_peak) continue;
    double min_threshold = 1e30;
    for (const PinId load : d.net(NetId{i}).loads) {
      if (d.pin(load).kind != net::PinKind::kInstance) continue;
      min_threshold =
          std::min(min_threshold, d.cell_of(d.pin(load).inst).immunity.threshold(nn.width));
    }
    if (min_threshold < 1e30 && nn.total_peak >= min_threshold) ++noisy;
  }
  EXPECT_EQ(r.noisy_nets, noisy);
}

void expect_matches_oracle(const OracleInputs& in, const Result& r) {
  ASSERT_EQ(r.nets.size(), in.design.net_count());
  for (std::size_t i = 0; i < r.nets.size(); ++i) {
    SCOPED_TRACE("net " + std::to_string(i));
    expect_net_matches_oracle(in, r, NetId{i});
  }
  expect_checks_match_oracle(in, r);
}

std::vector<int> thread_counts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return {1, hw > 1 ? hw : 2};
}

class KernelOracle : public ::testing::TestWithParam<AnalysisMode> {};

TEST_P(KernelOracle, FullRunsMatchOracle) {
  const lib::Library library = lib::default_library();
  for (const std::size_t seed : {7u, 23u}) {
    for (const bool logic : {false, true}) {
      const gen::Generated g =
          logic ? logic_case(library, seed) : bus_case(library, seed);
      const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
      Options o;
      o.mode = GetParam();
      o.clock_period = g.sta_options.clock_period;
      const OracleInputs in{g.design, g.para, timing, o, sta_windows(timing)};
      for (const int threads : thread_counts()) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " logic=" +
                     std::to_string(logic) + " threads=" + std::to_string(threads));
        o.threads = threads;
        const Result r = analyze(g.design, g.para, timing, o);
        EXPECT_GT(r.aggressors_considered, 0u);
        expect_matches_oracle(in, r);
      }
    }
  }
}

TEST_P(KernelOracle, IncrementalRunsMatchOracle) {
  const lib::Library library = lib::default_library();
  for (const bool logic : {false, true}) {
    const gen::Generated g = logic ? logic_case(library, 13) : bus_case(library, 13);
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    Options o;
    o.mode = GetParam();
    o.clock_period = g.sta_options.clock_period;
    const Result before = analyze(g.design, g.para, timing, o);
    // A real parasitic edit on three nets; the timing is kept, so only the
    // edited nets and their coupling neighbours can change.
    para::Parasitics edited = g.para;
    const NetId changed[] = {NetId{3}, NetId{17}, NetId{40}};
    for (const NetId id : changed) edited.net(id).scale(1.7, 0.8);
    const OracleInputs in{g.design, edited, timing, o, sta_windows(timing)};
    const Result full = analyze(g.design, edited, timing, o);
    for (const int threads : thread_counts()) {
      SCOPED_TRACE("logic=" + std::to_string(logic) +
                   " threads=" + std::to_string(threads));
      o.threads = threads;
      const Result inc =
          analyze_incremental(g.design, edited, timing, o, before, changed);
      EXPECT_GT(inc.telemetry.victims_reused, 0u);
      expect_matches_oracle(in, inc);
      expect_identical(full, inc, /*compare_work_counters=*/false);
    }
  }
}

TEST_P(KernelOracle, RefinementPassesMatchOracle) {
  const lib::Library library = lib::default_library();
  for (const bool logic : {false, true}) {
    const gen::Generated g = logic ? logic_case(library, 29) : bus_case(library, 29);
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    Options o;
    o.mode = GetParam();
    o.clock_period = g.sta_options.clock_period;
    // The last pass of a run with k refinement passes runs on the windows
    // inflated from the result of the run with k-1 passes.
    Result prev = analyze(g.design, g.para, timing, o);
    for (int k = 1; k <= 2; ++k) {
      const OracleInputs in{g.design, g.para, timing, o, inflated_windows(timing, o, prev)};
      o.refine_iterations = k;
      for (const int threads : thread_counts()) {
        SCOPED_TRACE("logic=" + std::to_string(logic) + " refine=" + std::to_string(k) +
                     " threads=" + std::to_string(threads));
        o.threads = threads;
        const Result r = analyze(g.design, g.para, timing, o);
        expect_matches_oracle(in, r);
        if (threads == 1) prev = r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, KernelOracle,
                         ::testing::Values(AnalysisMode::kNoFiltering,
                                           AnalysisMode::kSwitchingWindows,
                                           AnalysisMode::kNoiseWindows));

}  // namespace
}  // namespace nw::noise
