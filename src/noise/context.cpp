#include "noise/context.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "noise/analyzer.hpp"

namespace nw::noise {

AnalysisContext AnalysisContext::build(const net::Design& design,
                                       const para::Parasitics& para,
                                       const sta::Result& sta_result,
                                       const Options& opt) {
  if (sta_result.nets.size() != design.net_count()) {
    throw std::invalid_argument("noise::analyze: STA result does not match design");
  }
  AnalysisContext ctx;
  ctx.vdd = design.library().vdd();
  const std::size_t n = design.net_count();

  // Coupling-graph adjacency, built straight into CSR rows: per victim,
  // the coupling caps are stable-sorted by aggressor and summed run by run
  // (each run in the ascending order couplings_of lists them), then
  // pre-filtered against the threshold. Two passes — count, then fill —
  // so the slabs are allocated once at their exact size.
  std::vector<std::pair<NetId::value_type, double>> row;
  const auto for_each_kept = [&](std::size_t vi, auto&& keep) {
    const NetId victim{vi};
    row.clear();
    for (const auto ci : para.couplings_of(victim)) {
      const auto& cc = para.coupling(ci);
      row.emplace_back(cc.other_net(victim).value(), cc.c);
    }
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t filtered = 0;
    for (std::size_t k = 0; k < row.size();) {
      const NetId::value_type agg = row[k].first;
      double c_total = 0.0;
      for (; k < row.size() && row[k].first == agg; ++k) c_total += row[k].second;
      if (c_total < opt.min_coupling_cap) {
        ++filtered;
      } else {
        keep(NetId{agg}, c_total);
      }
    }
    return filtered;
  };
  ctx.agg_offsets.assign(n + 1, 0);
  for (std::size_t vi = 0; vi < n; ++vi) {
    std::uint32_t kept = 0;
    ctx.pairs_filtered_cap += for_each_kept(vi, [&](NetId, double) { ++kept; });
    ctx.agg_offsets[vi + 1] = ctx.agg_offsets[vi] + kept;
  }
  ctx.agg_net.resize(ctx.agg_offsets[n]);
  ctx.agg_cap.resize(ctx.agg_offsets[n]);
  for (std::size_t vi = 0; vi < n; ++vi) {
    std::uint32_t slot = ctx.agg_offsets[vi];
    (void)for_each_kept(vi, [&](NetId agg, double c_total) {
      ctx.agg_net[slot] = agg;
      ctx.agg_cap[slot++] = c_total;
    });
  }

  // Per-net driver load (for gate-delay lookups during propagation).
  ctx.load_cap.resize(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const NetId id{i};
    double cap = para.total_cap(id, /*miller=*/1.0);
    for (const PinId load : design.net(id).loads) cap += design.pin_cap(load);
    ctx.load_cap[i] = cap;
  }

  ctx.switch_window.resize(n);
  for (std::size_t i = 0; i < n; ++i) ctx.switch_window[i] = sta_result.nets[i].window;

  for (std::size_t i = 0; i < n; ++i) {
    const net::Net& nn = design.net(NetId{i});
    if (nn.driver.valid() && design.pin(nn.driver).kind == net::PinKind::kInputPort) {
      ctx.port_nets.push_back(NetId{i});
    }
  }

  // Levelized schedule from the topological order. net_level is 0 for
  // port-driven, sequential-driven, and undriven nets; a combinational
  // instance sits one level above its deepest input net.
  const std::vector<InstId> topo = design.topological_order();
  std::vector<std::size_t> net_level(n, 0);
  std::vector<std::size_t> inst_level(design.instance_count(), 0);
  std::size_t max_level = 0;
  for (const InstId inst_id : topo) {
    const net::Instance& inst = design.instance(inst_id);
    const lib::Cell& cell = design.cell_of(inst_id);
    if (cell.is_sequential()) continue;  // level 0
    std::size_t lvl = 0;
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kInput) continue;
      const net::Pin& ip = design.pin(inst.pins[pi]);
      if (ip.net.valid()) lvl = std::max(lvl, net_level[ip.net.index()]);
    }
    lvl += 1;
    inst_level[inst_id.index()] = lvl;
    max_level = std::max(max_level, lvl);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kOutput) continue;
      const net::Pin& op = design.pin(inst.pins[pi]);
      if (op.net.valid()) net_level[op.net.index()] = lvl;
    }
  }
  // Level-major slab order: a counting sort of the topological order by
  // level, so each level keeps its instances in topological order.
  ctx.level_offsets.assign(max_level + 2, 0);
  for (const InstId inst_id : topo) ++ctx.level_offsets[inst_level[inst_id.index()] + 1];
  for (std::size_t li = 0; li <= max_level; ++li) {
    ctx.level_offsets[li + 1] += ctx.level_offsets[li];
  }
  std::vector<InstId> slab_inst(topo.size());
  std::vector<std::uint32_t> fill(ctx.level_offsets.begin(), ctx.level_offsets.end() - 1);
  for (const InstId inst_id : topo) slab_inst[fill[inst_level[inst_id.index()]]++] = inst_id;
  ctx.slab_cell.reserve(topo.size());
  ctx.slab_seq.reserve(topo.size());
  ctx.in_offsets.reserve(topo.size() + 1);
  ctx.out_offsets.reserve(topo.size() + 1);
  ctx.in_offsets.push_back(0);
  ctx.out_offsets.push_back(0);
  for (const InstId inst_id : slab_inst) {
    const net::Instance& inst = design.instance(inst_id);
    const lib::Cell& cell = design.cell_of(inst_id);
    ctx.slab_cell.push_back(&cell);
    ctx.slab_seq.push_back(cell.is_sequential() ? 1 : 0);
    // Valid nets in pin order (max-selection tie-breaking depends on it).
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      const net::Pin& p = design.pin(inst.pins[pi]);
      if (!p.net.valid()) continue;
      if (cell.pins[pi].dir == lib::PinDir::kInput) {
        ctx.in_net.push_back(p.net);
      } else if (cell.pins[pi].dir == lib::PinDir::kOutput) {
        ctx.out_net.push_back(p.net);
      }
    }
    ctx.in_offsets.push_back(static_cast<std::uint32_t>(ctx.in_net.size()));
    ctx.out_offsets.push_back(static_cast<std::uint32_t>(ctx.out_net.size()));
  }

  // Sequential endpoints with precomputed sensitivity windows.
  for (std::size_t si = 0; si < design.sequentials().size(); ++si) {
    const InstId s = design.sequentials()[si];
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    const Interval clk =
        si < sta_result.clock_arrivals.size() && !sta_result.clock_arrivals[si].is_empty()
            ? sta_result.clock_arrivals[si]
            : Interval{0.0, 0.0};
    // Edge-triggered flops sample only around the next capture edge. A
    // level-sensitive latch is vulnerable throughout its transparent
    // phase — anything arriving while the enable is open flows through
    // and is held at the closing edge. Clock uncertainty widens both.
    Interval sens;
    if (cell.kind == lib::CellKind::kLatch) {
      sens = Interval{clk.lo - cell.setup,
                      clk.hi + opt.latch_duty * opt.clock_period + cell.hold};
    } else {
      sens = Interval{clk.lo + opt.clock_period - cell.setup,
                      clk.hi + opt.clock_period + cell.hold};
    }
    sens = sens.dilated(opt.clock_uncertainty, opt.clock_uncertainty);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const net::Pin& dp = design.pin(inst.pins[pi]);
      if (!dp.net.valid()) continue;
      ctx.endpoints.push_back(EndpointRef{s, inst.pins[pi], dp.net, sens});
    }
  }
  return ctx;
}

std::vector<NetId> AnalysisContext::dirty_closure(const para::Parasitics& para,
                                                  std::span<const NetId> changed) const {
  const std::size_t n = net_count();
  std::vector<char> dirty(n, 0);
  for (const NetId net : changed) {
    if (net.index() >= n) {
      throw std::invalid_argument(
          "dirty_closure: changed net id " + std::to_string(net.value()) +
          " outside the design (" + std::to_string(n) + " nets)");
    }
    dirty[net.index()] = 1;
    for (const auto ci : para.couplings_of(net)) {
      dirty[para.coupling(ci).other_net(net).index()] = 1;
    }
  }
  std::vector<NetId> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (dirty[i]) out.push_back(NetId{i});
  }
  return out;
}

}  // namespace nw::noise
