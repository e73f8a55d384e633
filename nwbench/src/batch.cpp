#include <malloc.h>

#include <optional>

#include "noise/report_writer.hpp"
#include "obs/memtrack.hpp"
#include "workloads.hpp"

namespace nwb {

void run_batch(const RunArgs& args, BatchSpec& spec, Outcome& out) {
  SpanLog log(false, 1);
  std::vector<double> pass_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> kernel_ms;
  LayerSamples layers;

  const Clock::time_point start = Clock::now();
  const auto deadline = seconds_after(start, args.seconds);
  for (std::uint64_t pass = 0; pass < 2 || Clock::now() < deadline; ++pass) {
    // Traced runs alternate traced and untraced passes so that the tracing
    // overhead is measured under the same host drift.
    const bool traced = args.trace && pass % 2 == 0;
    log.begin_op(pass, traced);

    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<const LoadedDesign> d = spec.load(log);
    const nw::net::Design& design = *d->design;
    const nw::para::Parasitics& para = *d->para;
    const nw::obs::ScopedMemCharge design_mem(nw::obs::MemAccountId::kDesign,
                                              design.memory_bytes());
    const nw::obs::ScopedMemCharge para_mem(nw::obs::MemAccountId::kParasitics,
                                            para.memory_bytes());
    std::optional<nw::sta::Result> timing;
    {
      const auto s = log.span("sta.run");
      timing.emplace(nw::sta::run(design, para, spec.sta));
    }
    std::optional<nw::obs::ScopedMemCharge> sta_mem;
    sta_mem.emplace(nw::obs::MemAccountId::kSta, nw::sta::memory_bytes(*timing));
    std::optional<nw::noise::Result> result;
    {
      const auto s = log.span("noise.analyze");
      result.emplace(nw::noise::analyze(design, para, *timing, spec.noise));
    }
    std::optional<nw::obs::ScopedMemCharge> result_mem;
    result_mem.emplace(nw::obs::MemAccountId::kResult, nw::noise::memory_bytes(*result));
    std::string report;
    {
      const auto s = log.span("noise.report");
      report = nw::noise::report_string(design, spec.noise, *result);
    }
    const Clock::time_point t_report = Clock::now();

    const bool same_result = fingerprint(design, *result) == spec.reference;
    if (traced) add_analysis_samples(*result, layers);
    // The k-th set-up repetition is due k/n of the way through the run.
    while (spec.setup && static_cast<int>(spec.setups.size()) < spec.setup_repeats &&
           Clock::now() < deadline &&
           ms_between(start, Clock::now()) >= static_cast<double>(spec.setups.size()) *
                                                  args.seconds * 1e3 / spec.setup_repeats) {
      spec.setups.push_back(time_setup([&] { spec.setup(*d, out); }));
    }
    const Clock::time_point t_teardown = Clock::now();
    {
      const auto s = log.span("noise.teardown");
      result_mem.reset();
      result.reset();
    }
    sta_mem.reset();
    timing.reset();
    d.reset();
    const double ms = ms_between(t0, t_report) + ms_between(t_teardown, Clock::now());
    pass_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (spec.reference_report.empty()) spec.reference_report = report;
    out.check(same_result, "pass " + std::to_string(pass) +
                               ": peaks or violations differ from the reference analysis");
    out.check(report == spec.reference_report,
              "pass " + std::to_string(pass) + ": report differs from the first one");
    // Hand freed heap back to the system between passes, so that every pass
    // starts from the footprint a fresh process would have and the peak RSS
    // does not creep with the number of passes a run happens to fit.
    malloc_trim(0);
    kernel_ms.push_back(reference_kernel_ms());
  }

  const double rss = peak_rss_mb();
  double total_ms = 0;
  for (const double ms : pass_ms) total_ms += ms;
  const double setup_s = setup_seconds(spec.setups, out.detail);
  const double pass_p50 = median(pass_ms);
  const double passes_per_s = static_cast<double>(pass_ms.size()) * 1e3 / total_ms;
  const double kernel_p50 = median(kernel_ms);

  if (args.trace) {
    log.add_self_times(layers);
    layers.merge_missing(spec.setup_layers);
    const double spef_ms = layers.median_of("parasitics.read_ms");
    if (spef_ms > 0) {
      layers.add("parasitics.read_mb_per_s",
                 static_cast<double>(spec.spef_bytes) / (1 << 20) / (spef_ms / 1e3));
    }
    layers.add("mem.tracked_peak_mb",
               static_cast<double>(nw::obs::MemTracker::total_peak()) / (1 << 20));
    layers.add("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
    out.layers = layers.medians();
    if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, {&log}, start);
  } else {
    out.end_to_end = {{"setup_s", setup_s, "s"},
                      {"op_p50_ref", pass_p50 / kernel_p50, "ref"},
                      {"peak_rss_mb", rss, "MB"}};
  }
  out.detail.insert(out.detail.end(),
                    {{"pass_s", pass_p50 / 1e3, "s"},
                     {"pass_p25_s", quantile(pass_ms, 0.25) / 1e3, "s"},
                     {"pass_p75_s", quantile(pass_ms, 0.75) / 1e3, "s"},
                     {"passes", static_cast<double>(pass_ms.size()), "count"},
                     {"passes_per_s", passes_per_s, "1/s"},
                     {"ref_kernel_ms", kernel_p50, "ms"},
                     {"pass_ref", pass_p50 / kernel_p50, "ref"},
                     {"peak_rss_mb", rss, "MB"},
                     {"threads", static_cast<double>(spec.noise.threads), "count"}});
}

}  // namespace nwb
