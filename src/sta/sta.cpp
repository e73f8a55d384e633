#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parasitics/reduce.hpp"

namespace nw::sta {

namespace {

/// Cached per-net interconnect view: Elmore delay per node and the lumped
/// load presented to the driving cell.
struct NetWireInfo {
  std::vector<double> elmore;  ///< per RC node, from the root
  double load_cap = 0.0;       ///< ground + pin + miller * coupling [F]
};

NetWireInfo wire_info(const net::Design& d, const para::Parasitics& para, NetId id,
                      const Options& opt) {
  const double miller = opt.miller_factor;
  NetWireInfo w;
  const para::RcNet& rc = para.net(id);
  // Per-node extra caps: attached pin loads plus Miller-lumped couplings.
  std::vector<double> extra(rc.node_count(), 0.0);
  for (const PinId load : d.net(id).loads) {
    const auto node = rc.node_of_pin(load);
    const double cap = d.pin_cap(load);
    if (node < rc.node_count()) {
      extra[node] += cap;
    } else {
      extra[0] += cap;  // unattached load: lump at the driver
    }
  }
  for (const auto ci : para.couplings_of(id)) {
    const auto& cc = para.coupling(ci);
    extra[cc.node_on(id)] += miller * cc.c;
  }
  if (rc.res_count() == 0) {
    w.elmore.assign(rc.node_count(), 0.0);
  } else {
    w.elmore = para::elmore_delays(rc, extra);
  }
  w.load_cap = rc.total_ground_cap();
  for (const double e : extra) w.load_cap += e;

  if (opt.use_ceff && rc.res_count() > 0 && d.net(id).driver.valid()) {
    const para::PiModel pi = para::pi_model(rc, extra);
    if (pi.r > 0.0) {
      const double rd = d.driver_resistance(id, /*holding=*/false);
      const double k = rd / (rd + pi.r);
      w.load_cap = pi.c_near + k * pi.c_far;
    }
  }
  return w;
}

/// Merge `t` into `acc`: union of arrival intervals, envelope of slews.
bool merge(PinTiming& acc, const PinTiming& t) {
  const PinTiming before = acc;
  acc.rise = acc.rise.hull(t.rise);
  acc.fall = acc.fall.hull(t.fall);
  if (!t.reached()) return false;
  if (!before.reached()) {
    acc.slew_min = t.slew_min;
    acc.slew_max = t.slew_max;
  } else {
    acc.slew_min = std::min(acc.slew_min, t.slew_min);
    acc.slew_max = std::max(acc.slew_max, t.slew_max);
  }
  const bool changed = !(before.rise == acc.rise) || !(before.fall == acc.fall) ||
                       before.slew_min != acc.slew_min || before.slew_max != acc.slew_max;
  return changed;
}

/// Delay/slew of one arc evaluated over an input interval; conservative:
/// earliest uses min slew, latest uses max slew.
struct EdgeOut {
  Interval arrival;
  double slew_min = 0.0;
  double slew_max = 0.0;
};

EdgeOut eval_edge(const lib::Table2D& delay_tbl, const lib::Table2D& slew_tbl,
                  const Interval& in_arrival, double in_slew_min, double in_slew_max,
                  double load) {
  EdgeOut out;
  if (in_arrival.is_empty()) return out;
  const double d_min = delay_tbl.lookup(in_slew_min, load);
  const double d_max = delay_tbl.lookup(in_slew_max, load);
  out.arrival = {in_arrival.lo + std::min(d_min, d_max),
                 in_arrival.hi + std::max(d_min, d_max)};
  const double s0 = slew_tbl.lookup(in_slew_min, load);
  const double s1 = slew_tbl.lookup(in_slew_max, load);
  out.slew_min = std::min(s0, s1);
  out.slew_max = std::max(s0, s1);
  return out;
}

}  // namespace

double Result::worst_slack() const noexcept {
  double w = 1e30;
  for (const auto& e : endpoints) w = std::min(w, e.slack());
  return endpoints.empty() ? 0.0 : w;
}

Result run(const net::Design& design, const para::Parasitics& para, const Options& opt) {
  if (para.net_count() != design.net_count()) {
    throw std::invalid_argument("sta::run: parasitics/net count mismatch");
  }

  Result res;
  res.pins.assign(design.pin_count(), PinTiming{});
  res.nets.assign(design.net_count(), NetTiming{});

  // Cache wire info per net.
  std::vector<NetWireInfo> wires;
  wires.reserve(design.net_count());
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    wires.push_back(wire_info(design, para, NetId{i}, opt));
  }

  // Seed primary inputs.
  for (const PinId p : design.input_ports()) {
    PinTiming t;
    Interval arr = opt.default_input_arrival;
    const auto it = opt.input_arrivals.find(design.port_name(p));
    if (it != opt.input_arrivals.end()) arr = it->second;
    t.rise = arr;
    t.fall = arr;
    t.slew_min = t.slew_max = design.port_drive(p).slew;
    res.pins[p.index()] = t;
  }

  const std::vector<InstId> order = design.topological_order();

  // Timing at a load pin: driving net's pin timing shifted by wire delay.
  auto load_pin_timing = [&](PinId load) -> PinTiming {
    const net::Pin& lp = design.pin(load);
    if (!lp.net.valid()) return {};
    const net::Net& n = design.net(lp.net);
    if (!n.driver.valid()) return {};
    PinTiming t = res.pins[n.driver.index()];
    const para::RcNet& rc = para.net(lp.net);
    const auto node = rc.node_of_pin(load);
    const double wd = (node < rc.node_count() && node < wires[lp.net.index()].elmore.size())
                          ? wires[lp.net.index()].elmore[node]
                          : 0.0;
    t.rise = t.rise.shifted(wd);
    t.fall = t.fall.shifted(wd);
    return t;
  };

  constexpr int kMaxPasses = 6;
  bool changed = true;
  int pass = 0;
  while (changed && pass < kMaxPasses) {
    changed = false;
    ++pass;
    for (const InstId inst_id : order) {
      const net::Instance& inst = design.instance(inst_id);
      const lib::Cell& cell = design.cell_of(inst_id);

      for (const auto& arc : cell.arcs) {
        const PinId in_pin = inst.pins[arc.from_pin];
        const PinId out_pin = inst.pins[arc.to_pin];
        const net::Pin& op = design.pin(out_pin);
        if (!op.net.valid()) continue;
        const double load = wires[op.net.index()].load_cap;
        const PinTiming in_t = load_pin_timing(in_pin);
        if (!in_t.reached()) continue;

        PinTiming out_t;
        auto add_edge = [&](bool out_rise, const Interval& in_arr) {
          const auto& dt = out_rise ? arc.delay_rise : arc.delay_fall;
          const auto& st = out_rise ? arc.slew_rise : arc.slew_fall;
          const EdgeOut e = eval_edge(dt, st, in_arr, in_t.slew_min, in_t.slew_max, load);
          if (e.arrival.is_empty()) return;
          PinTiming tmp;
          (out_rise ? tmp.rise : tmp.fall) = e.arrival;
          tmp.slew_min = e.slew_min;
          tmp.slew_max = e.slew_max;
          merge(out_t, tmp);
        };

        switch (arc.sense) {
          case lib::ArcSense::kPositiveUnate:
            add_edge(true, in_t.rise);
            add_edge(false, in_t.fall);
            break;
          case lib::ArcSense::kNegativeUnate:
            add_edge(true, in_t.fall);
            add_edge(false, in_t.rise);
            break;
          case lib::ArcSense::kNonUnate:
            add_edge(true, in_t.window());
            add_edge(false, in_t.window());
            break;
        }
        if (out_t.reached()) changed |= merge(res.pins[out_pin.index()], out_t);
      }
    }
  }
  res.passes = pass;

  // Net summaries.
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const net::Net& n = design.net(NetId{i});
    if (!n.driver.valid()) continue;
    const PinTiming& t = res.pins[n.driver.index()];
    res.nets[i].window = t.window();
    res.nets[i].slew_min = t.slew_min;
    res.nets[i].slew_max = t.slew_max;
  }

  // Clock arrivals at sequential clock pins.
  res.clock_arrivals.reserve(design.sequentials().size());
  for (const InstId s : design.sequentials()) {
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    Interval clk = Interval::empty();
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role == lib::PinRole::kClock ||
          cell.pins[pi].role == lib::PinRole::kEnable) {
        const PinTiming t = load_pin_timing(inst.pins[pi]);
        clk = clk.hull(t.window());
      }
    }
    res.clock_arrivals.push_back(clk);
  }

  // Endpoints: DFF/latch data pins (setup against the next clock edge) and
  // primary output ports (against the period).
  for (std::size_t si = 0; si < design.sequentials().size(); ++si) {
    const InstId s = design.sequentials()[si];
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const PinTiming t = load_pin_timing(inst.pins[pi]);
      if (!t.reached()) continue;
      Endpoint e;
      e.pin = inst.pins[pi];
      const double clk_late = res.clock_arrivals[si].is_empty()
                                  ? 0.0
                                  : res.clock_arrivals[si].hi;
      e.required = clk_late + opt.clock_period - cell.setup;
      e.arrival = t.window().hi;
      res.endpoints.push_back(e);
    }
  }
  for (const PinId p : design.output_ports()) {
    const PinTiming t = load_pin_timing(p);
    if (!t.reached()) continue;
    Endpoint e;
    e.pin = p;
    e.required = opt.clock_period;
    e.arrival = t.window().hi;
    res.endpoints.push_back(e);
  }

  return res;
}

}  // namespace nw::sta
