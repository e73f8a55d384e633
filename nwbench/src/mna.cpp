// mna-bus256: the suite's D2 256-bit bus under the reduced-MNA glitch
// model at nproc threads. Glitch estimation is nearly all of the analysis,
// so this is the workload where the linear-algebra/transient models and
// executor scaling decide the pass time, while STA and ingestion stay small.
#include "gen/bus.hpp"
#include "noise/report_writer.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace nwb {

namespace {

nw::gen::BusConfig bus256(std::uint64_t seed) {
  nw::gen::BusConfig cfg;
  cfg.bits = 256;
  cfg.segments = 4;
  cfg.coupling_adj = 5 * nw::FF;
  cfg.coupling_2nd = 1.5 * nw::FF;
  cfg.coupling_jitter = 0.5;
  cfg.port_res = 2500.0;
  cfg.drive_jitter = 0.5;
  cfg.stagger_groups = 4;
  cfg.stagger = 250 * nw::PS;
  cfg.window_width = 60 * nw::PS;
  cfg.jitter = 140 * nw::PS;
  cfg.seed = design_seed(256, seed);
  return cfg;
}

// Recorded for the default seed when the benchmark was defined.
constexpr std::size_t kDefaultSeedViolations = 6;
constexpr std::size_t kDefaultSeedPairs = 1018;
constexpr int kSetupRepeats = 16;

}  // namespace

Outcome run_mna(const RunArgs& args) {
  const nw::lib::Library library = nw::lib::default_library();
  const DesignFiles files = design_files(args.workdir, "bus256");
  BatchSpec spec;
  Outcome out;
  SpanLog setup_log(args.trace, 0);
  std::shared_ptr<const LoadedDesign> loaded;

  // The design is generated, written and read back once. The timed set-up
  // is the serial (one-thread) reference result every pass is checked
  // against: compute-bound, like the passes. Its repetitions, spread over
  // the run, must reproduce it exactly.
  {
    const nw::gen::Generated g = nw::gen::make_bus(library, bus256(args.seed));
    write_design(files, library, g.design, g.para);
    spec.sta = g.sta_options;
  }
  loaded = std::make_shared<const LoadedDesign>(read_design(files, setup_log));
  nw::noise::Options serial;
  serial.mode = nw::noise::AnalysisMode::kNoiseWindows;
  serial.model = nw::noise::GlitchModel::kReducedMna;
  serial.clock_period = spec.sta.clock_period;
  serial.threads = 1;
  std::size_t violations = 0;
  std::size_t pairs = 0;
  spec.setups.push_back(time_setup([&] {
    const nw::sta::Result timing = nw::sta::run(*loaded->design, *loaded->para, spec.sta);
    const nw::noise::Result r =
        nw::noise::analyze(*loaded->design, *loaded->para, timing, serial);
    spec.reference = fingerprint(*loaded->design, r);
    spec.reference_report = nw::noise::report_string(*loaded->design, serial, r);
    violations = r.violations.size();
    pairs = r.telemetry.aggressor_pairs;
  }));
  spec.setup_layers.add("netlist.nets", static_cast<double>(loaded->design->net_count()));
  if (args.seed == 0) {
    out.check(violations == kDefaultSeedViolations && pairs == kDefaultSeedPairs,
              "default seed: " + std::to_string(violations) + " violations and " +
                  std::to_string(pairs) + " pairs, recorded " +
                  std::to_string(kDefaultSeedViolations) + " and " +
                  std::to_string(kDefaultSeedPairs));
  }
  spec.noise = serial;
  spec.noise.threads = args.threads;
  spec.setup_repeats = kSetupRepeats;
  spec.setup = [&spec, serial](const LoadedDesign& d, Outcome& o) {
    const nw::sta::Result timing = nw::sta::run(*d.design, *d.para, spec.sta);
    const nw::noise::Result r = nw::noise::analyze(*d.design, *d.para, timing, serial);
    o.check(fingerprint(*d.design, r) == spec.reference &&
                nw::noise::report_string(*d.design, serial, r) == spec.reference_report,
            "serial set-up repetition differs from the first serial result");
  };
  spec.spef_bytes = file_bytes(files.spef);
  setup_log.add_self_times(spec.setup_layers);

  spec.load = [&loaded](SpanLog&) { return loaded; };
  run_batch(args, spec, out);
  return out;
}

}  // namespace nwb
