// Shared testcase suite for the reconstructed experiments (DESIGN.md R-T1).
//
// Six designs spanning the regimes the paper-class evaluation covers:
// regular buses (dense, structured coupling with staggered timing),
// random logic clouds (irregular coupling, deep propagation), and a
// register pipeline (sequential endpoints for the latch check).
#pragma once

#include <string>
#include <vector>

#include "gen/bus.hpp"
#include "gen/pipeline.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::bench {

struct Case {
  std::string name;
  gen::Generated generated;
};

/// D1/D2/D3: buses of growing width. Strong coupling + weak holders so
/// that the unfiltered analysis reports real violations.
inline gen::BusConfig bus_config(std::size_t bits) {
  gen::BusConfig cfg;
  cfg.bits = bits;
  cfg.segments = 4;
  cfg.coupling_adj = 5 * FF;
  cfg.coupling_2nd = 1.5 * FF;
  cfg.coupling_jitter = 0.5;
  cfg.port_res = 2500.0;
  cfg.drive_jitter = 0.5;
  // Partially overlapping arrival groups: adjacent aggressors can sometimes
  // align (so switching windows filter much, not all, of the pessimism).
  cfg.stagger_groups = 4;
  cfg.stagger = 250 * PS;
  cfg.window_width = 60 * PS;
  cfg.jitter = 140 * PS;
  cfg.seed = bits;
  return cfg;
}

/// D4/D5: random logic clouds.
inline gen::RandLogicConfig logic_config(std::size_t gates) {
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 32;
  cfg.gates = gates;
  cfg.levels = 10;
  cfg.coupling_prob = 0.5;
  cfg.coupling_cap_min = 2 * FF;
  cfg.coupling_cap_max = 9 * FF;
  cfg.input_spread = 1500 * PS;
  cfg.dff_fraction = 0.3;
  cfg.seed = gates;
  return cfg;
}

/// D6: register pipeline with heavily coupled capture nets.
inline gen::PipelineConfig pipeline_config(std::size_t paths) {
  gen::PipelineConfig cfg;
  cfg.paths = paths;
  cfg.coupling_cap = 28 * FF;
  cfg.seed = paths;
  return cfg;
}

/// The full D1..D6 suite. The library must outlive the returned cases.
inline std::vector<Case> make_suite(const lib::Library& library) {
  std::vector<Case> cases;
  cases.push_back({"D1-bus64", gen::make_bus(library, bus_config(64))});
  cases.push_back({"D2-bus256", gen::make_bus(library, bus_config(256))});
  cases.push_back({"D3-bus1024", gen::make_bus(library, bus_config(1024))});
  cases.push_back({"D4-logic1k", gen::make_rand_logic(library, logic_config(1000))});
  cases.push_back({"D5-logic10k", gen::make_rand_logic(library, logic_config(10000))});
  cases.push_back({"D6-pipe256", gen::make_pipeline(library, pipeline_config(256))});
  return cases;
}

}  // namespace nw::bench
