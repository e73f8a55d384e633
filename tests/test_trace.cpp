// Noise origin tracing through propagation chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gen/randlogic.hpp"
#include "library/library.hpp"
#include "netlist/design.hpp"
#include "netlist/verilog.hpp"
#include "noise/analyzer.hpp"
#include "noise/report_writer.hpp"
#include "noise/trace.hpp"
#include "parasitics/spef.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

/// victim -> INV -> m1 -> BUF -> m2; the aggressor couples only to the
/// victim, so noise on m2 must trace back two gates to the victim.
struct ChainFixture {
  lib::Library library = lib::default_library();
  net::Design design{library, "chain"};
  NetId victim, agg, m1, m2;

  ChainFixture() {
    victim = design.add_net("victim");
    agg = design.add_net("agg");
    m1 = design.add_net("m1");
    m2 = design.add_net("m2");
    design.add_input_port("vin", victim, {4000.0, 30 * PS});
    design.add_input_port("ain", agg, {300.0, 15 * PS});
    const InstId g1 = design.add_instance("g1", "INV_X1");
    design.connect(g1, "A", victim);
    design.connect(g1, "Y", m1);
    const InstId g2 = design.add_instance("g2", "BUF_X1");
    design.connect(g2, "A", m1);
    design.connect(g2, "Y", m2);
    design.add_output_port("out", m2);
    const InstId rx = design.add_instance("rx", "INV_X1");
    design.connect(rx, "A", agg);
    const NetId ay = design.add_net("ay");
    design.connect(rx, "Y", ay);
    design.add_output_port("ao", ay);
  }

  para::Parasitics make_para() const {
    para::Parasitics p(design.net_count());
    for (std::size_t i = 0; i < design.net_count(); ++i) p.net(NetId{i}).add_cap(0, 2 * FF);
    p.add_coupling(victim, 0, agg, 0, 60 * FF);
    return p;
  }
};

TEST(Trace, FollowsPropagationChainToOrigin) {
  const ChainFixture f;
  const auto p = f.make_para();
  sta::Options sopt;
  sopt.input_arrivals["ain"] = Interval{100 * PS, 150 * PS};
  sopt.input_arrivals["vin"] = Interval{0.0, 0.0};
  const auto timing = sta::run(f.design, p, sopt);
  Options o;
  o.mode = AnalysisMode::kNoiseWindows;
  const Result r = analyze(f.design, p, timing, o);
  ASSERT_GT(r.net(f.m2).total_peak, 0.0);

  const NoiseTrace t = trace_origin(f.design, r, f.m2);
  ASSERT_EQ(t.path.size(), 3u);
  EXPECT_EQ(t.path[0].net, f.m2);
  EXPECT_EQ(t.path[1].net, f.m1);
  EXPECT_EQ(t.path[2].net, f.victim);
  // The injected glitch is super-threshold here, so the chain carries it
  // at full strength (gates amplify glitches above their switching point).
  EXPECT_GT(t.path[2].peak, 0.5);
  EXPECT_GT(t.path[1].peak, 0.5);
  ASSERT_EQ(t.aggressors.size(), 1u);
  EXPECT_EQ(t.aggressors[0], f.agg);

  const std::string text = trace_string(f.design, t);
  EXPECT_NE(text.find("m2"), std::string::npos);
  EXPECT_NE(text.find("victim"), std::string::npos);
  EXPECT_NE(text.find("[aggressors: agg]"), std::string::npos) << text;
}

TEST(Trace, InjectionNetIsItsOwnOrigin) {
  const ChainFixture f;
  const auto p = f.make_para();
  sta::Options sopt;
  sopt.input_arrivals["ain"] = Interval{0.0, 50 * PS};
  sopt.input_arrivals["vin"] = Interval{0.0, 0.0};
  const auto timing = sta::run(f.design, p, sopt);
  const Result r = analyze(f.design, p, timing, {});
  const NoiseTrace t = trace_origin(f.design, r, f.victim);
  ASSERT_EQ(t.path.size(), 1u);
  EXPECT_EQ(t.path[0].net, f.victim);
  EXPECT_EQ(t.aggressors.size(), 1u);
}

// Regression: aggressor collection happens wherever the walk stops — not
// only in the no-propagated-member branch — so a single-step query of the
// injection net itself must name its aggressors in every analysis mode.
TEST(Trace, SingleStepQueryNamesAggressorsInEveryMode) {
  const ChainFixture f;
  const auto p = f.make_para();
  sta::Options sopt;
  sopt.input_arrivals["ain"] = Interval{100 * PS, 150 * PS};
  sopt.input_arrivals["vin"] = Interval{0.0, 0.0};
  const auto timing = sta::run(f.design, p, sopt);
  for (const AnalysisMode mode :
       {AnalysisMode::kNoFiltering, AnalysisMode::kSwitchingWindows,
        AnalysisMode::kNoiseWindows}) {
    Options o;
    o.mode = mode;
    const Result r = analyze(f.design, p, timing, o);
    ASSERT_GT(r.net(f.victim).total_peak, 0.0) << to_string(mode);
    const NoiseTrace t = trace_origin(f.design, r, f.victim);
    ASSERT_EQ(t.path.size(), 1u) << to_string(mode);
    EXPECT_EQ(t.path.back().net, f.victim) << to_string(mode);
    ASSERT_EQ(t.aggressors.size(), 1u) << to_string(mode);
    EXPECT_EQ(t.aggressors[0], f.agg) << to_string(mode);
    EXPECT_NE(trace_string(f.design, t).find("[aggressors: agg]"),
              std::string::npos)
        << to_string(mode);
  }
}

// Incremental runs restore reused victims' injected contributions; the
// origin trace must still name aggressors through that path.
TEST(Trace, AggressorsSurviveIncrementalReuse) {
  const ChainFixture f;
  const auto p = f.make_para();
  sta::Options sopt;
  sopt.input_arrivals["ain"] = Interval{100 * PS, 150 * PS};
  sopt.input_arrivals["vin"] = Interval{0.0, 0.0};
  const auto timing = sta::run(f.design, p, sopt);
  const Options o;
  const Result full = analyze(f.design, p, timing, o);
  // m2 has no couplings, so the victim is reused (not re-estimated).
  const NetId changed[] = {f.m2};
  const Result inc = analyze_incremental(f.design, p, timing, o, full, changed);
  const NoiseTrace t = trace_origin(f.design, inc, f.victim);
  ASSERT_FALSE(t.path.empty());
  ASSERT_EQ(t.aggressors.size(), 1u);
  EXPECT_EQ(t.aggressors[0], f.agg);
}

TEST(Trace, QuietNetGivesEmptyTrace) {
  const ChainFixture f;
  const auto p = f.make_para();
  const auto timing = sta::run(f.design, p, {});
  const Result r = analyze(f.design, p, timing, {});
  const NoiseTrace t = trace_origin(f.design, r, f.agg);  // agg itself sees ~no noise?
  // Whether or not agg has noise, a bad id must throw and the empty case
  // must render cleanly.
  EXPECT_THROW((void)trace_origin(f.design, r, NetId{99999}), std::invalid_argument);
  (void)trace_string(f.design, t);
}

/// One weakly held victim between two aggressors that switch together.
/// `permuted` declares the aggressor nets (and their ports) in the opposite
/// order, so every aggressor id differs, and inserts the couplings in the
/// opposite order — what a .nv/.nwspef round trip does to a design.
struct PairFixture {
  lib::Library library = lib::default_library();
  net::Design design{library, "pair"};
  NetId victim, za, ab;

  explicit PairFixture(bool permuted) {
    victim = design.add_net("v");
    const auto add_aggressor = [&](const std::string& name) {
      const NetId n = design.add_net(name);
      design.add_input_port(name + "_in", n, {300.0, 15 * PS});
      design.add_output_port(name + "_out", n);
      return n;
    };
    if (permuted) {
      ab = add_aggressor("ab");
      za = add_aggressor("za");
    } else {
      za = add_aggressor("za");
      ab = add_aggressor("ab");
    }
    design.add_input_port("vin", victim, {4000.0, 30 * PS});
    design.add_output_port("out", victim);
  }

  para::Parasitics make_para(bool permuted) const {
    para::Parasitics p(design.net_count());
    for (std::size_t i = 0; i < design.net_count(); ++i) p.net(NetId{i}).add_cap(0, 2 * FF);
    if (permuted) {
      p.add_coupling(ab, 0, victim, 0, 50 * FF);
      p.add_coupling(victim, 0, za, 0, 60 * FF);
    } else {
      p.add_coupling(victim, 0, za, 0, 60 * FF);
      p.add_coupling(ab, 0, victim, 0, 50 * FF);
    }
    return p;
  }
};

// The trace names in-worst aggressors by net name, not by storage order, so
// the report and the trace are identical however nets and couplings were
// numbered.
TEST(Trace, AggressorOrderIsCanonicalUnderPermutation) {
  std::string traces[2];
  std::string reports[2];
  for (const bool permuted : {false, true}) {
    const PairFixture f(permuted);
    const auto p = f.make_para(permuted);
    sta::Options sopt;
    sopt.input_arrivals["za_in"] = Interval{100 * PS, 150 * PS};
    sopt.input_arrivals["ab_in"] = Interval{100 * PS, 150 * PS};
    sopt.input_arrivals["vin"] = Interval{0.0, 0.0};
    const auto timing = sta::run(f.design, p, sopt);
    Options o;
    o.mode = AnalysisMode::kNoiseWindows;
    const Result r = analyze(f.design, p, timing, o);
    const NoiseTrace t = trace_origin(f.design, r, f.victim);
    ASSERT_EQ(t.aggressors.size(), 2u) << permuted;
    traces[permuted] = trace_string(f.design, t);
    reports[permuted] = report_string(f.design, o, r);
  }
  EXPECT_NE(traces[0].find("[aggressors: ab za]"), std::string::npos) << traces[0];
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_NE(reports[0].find("[aggressors: ab za]"), std::string::npos) << reports[0];
  EXPECT_EQ(reports[0], reports[1]);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

/// The .nv text of `design` with every net declared up front by a `wire`
/// line, in shuffled order, so each net gets a new id. Ports, instances
/// and connectivity keep their order.
std::string renumber_nets(const net::Design& design, std::mt19937_64& rng) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    names.push_back(design.net(NetId{i}).name);
  }
  std::shuffle(names.begin(), names.end(), rng);
  std::vector<std::string> lines = split_lines(net::write_netlist_string(design));
  std::erase_if(lines, [](const std::string& l) { return l.starts_with("wire "); });
  std::vector<std::string> out{lines.front()};
  for (const auto& n : names) out.push_back("wire " + n);
  out.insert(out.end(), lines.begin() + 1, lines.end());
  return join_lines(out);
}

/// The .nwspef text of `para` with its coupling lines shuffled and each
/// one's two ends swapped at random, so couplings are stored in a new
/// order and orientation.
std::string reorder_couplings(const net::Design& design, const para::Parasitics& para,
                              std::mt19937_64& rng) {
  std::vector<std::string> lines = split_lines(para::write_spef_string(design, para));
  const auto first = std::find_if(lines.begin(), lines.end(), [](const std::string& l) {
    return l.starts_with("*CC ");
  });
  const auto last = std::find_if(first, lines.end(), [](const std::string& l) {
    return !l.starts_with("*CC ");
  });
  std::shuffle(first, last, rng);
  for (auto it = first; it != last; ++it) {
    if (rng() % 2 == 0) continue;
    std::istringstream is(*it);
    std::string tag, a, na, b, nb, c;
    is >> tag >> a >> na >> b >> nb >> c;
    *it = tag + " " + b + " " + nb + " " + a + " " + na + " " + c;
  }
  return join_lines(lines);
}

std::string hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Everything a run reports, keyed by names, never by ids.
struct NamedOutcome {
  std::map<std::string, std::string> peaks;  ///< net name -> peaks in hex
  std::vector<std::string> violations;
  std::vector<std::string> provenance;
  std::string report;
};

NamedOutcome named_outcome(const net::Design& d, const Options& o, const Result& r) {
  const auto net_name = [&](NetId n) { return n.valid() ? d.net(n).name : "-"; };
  NamedOutcome out;
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const NetNoise& nn = r.net(NetId{i});
    out.peaks[d.net(NetId{i}).name] =
        hex(nn.injected_peak) + " " + hex(nn.propagated_peak) + " " + hex(nn.total_peak);
  }
  for (const Violation& v : r.violations) {
    out.violations.push_back(d.pin_name(v.endpoint) + " " + net_name(v.net) + " " +
                             hex(v.peak) + " " + hex(v.width) + " " + hex(v.threshold));
  }
  for (const Provenance& p : r.provenance) {
    std::string s = d.pin_name(p.endpoint) + " " + net_name(p.net) + " " +
                    hex(p.peak_unfiltered) + " " + hex(p.peak_switching) + " " +
                    hex(p.peak_noise_window) + " " + hex(p.peak_in_sensitivity) + " " +
                    to_string(p.culled_by) + " " + hex(p.alignment.lo) + " " +
                    hex(p.alignment.hi) + " |";
    for (const AggressorShare& sh : p.shares) {
      s += " " + net_name(sh.aggressor) + "/" + net_name(sh.from_net) + " " + hex(sh.peak) +
           " " + hex(sh.coupling_cap) + " " + hex(sh.overlap.lo) + " " + hex(sh.overlap.hi) +
           " " + to_string(sh.verdict);
    }
    s += " |";
    for (const ProvenanceStep& st : p.path) {
      s += " " + net_name(st.net) + " " + hex(st.peak) + " " + hex(st.width);
    }
    out.provenance.push_back(std::move(s));
  }
  out.report = report_string(d, o, r);
  return out;
}

// Property: renumbering nets and reordering coupling storage — what a
// .nv/.nwspef round trip does to a design — changes no output bit. Each
// seed draws a small random logic cloud with flop endpoints (so the
// sensitivity-window check clips many windows to one start time) and
// compares the in-memory analysis with that of a permuted file copy in
// every mode.
TEST(TraceProperty, OutputsIndependentOfNumbering) {
  constexpr std::uint64_t kSeeds = 12;
  const lib::Library library = lib::default_library();
  std::size_t violations_seen = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    gen::RandLogicConfig cfg;
    cfg.primary_inputs = 16;
    cfg.gates = 1000;
    cfg.levels = 6;
    cfg.coupling_prob = 0.9;
    cfg.coupling_cap_min = 2 * FF;
    cfg.coupling_cap_max = 9 * FF;
    cfg.input_spread = 1500 * PS;
    cfg.dff_fraction = 0.3;
    cfg.seed = seed;
    const gen::Generated g = gen::make_rand_logic(library, cfg);
    std::mt19937_64 rng(seed);
    const net::Design d2 = net::read_netlist_string(renumber_nets(g.design, rng), library);
    const para::Parasitics p2 =
        para::read_spef_string(reorder_couplings(g.design, g.para, rng), d2);
    std::size_t renumbered = 0;
    for (std::size_t i = 0; i < d2.net_count(); ++i) {
      renumbered += *g.design.find_net(d2.net(NetId{i}).name) != NetId{i};
    }
    ASSERT_GT(renumbered, d2.net_count() / 2) << "seed " << seed;

    const sta::Result t1 = sta::run(g.design, g.para, g.sta_options);
    const sta::Result t2 = sta::run(d2, p2, g.sta_options);
    for (const AnalysisMode mode : {AnalysisMode::kNoFiltering, AnalysisMode::kSwitchingWindows,
                                    AnalysisMode::kNoiseWindows}) {
      Options o;
      o.mode = mode;
      o.clock_period = g.sta_options.clock_period;
      const NamedOutcome a = named_outcome(g.design, o, analyze(g.design, g.para, t1, o));
      const NamedOutcome b = named_outcome(d2, o, analyze(d2, p2, t2, o));
      const std::string where = "seed " + std::to_string(seed) + " mode " +
                                std::to_string(static_cast<int>(mode));
      EXPECT_EQ(a.peaks, b.peaks) << where;
      EXPECT_EQ(a.violations, b.violations) << where;
      EXPECT_EQ(a.provenance, b.provenance) << where;
      EXPECT_EQ(a.report, b.report) << where;
      violations_seen += a.violations.size();
    }
  }
  EXPECT_GT(violations_seen, 0u);
}

}  // namespace
}  // namespace nw::noise
