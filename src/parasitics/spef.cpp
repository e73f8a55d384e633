#include "parasitics/spef.hpp"

#include <iomanip>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace nw::para {

namespace {

/// Resolve "inst/PIN" or a port name to a PinId; nullopt if it names none.
std::optional<PinId> resolve_pin(const net::Design& d, std::string_view name) {
  const auto slash = name.find('/');
  if (slash == std::string_view::npos) return d.find_port(name);
  const auto inst = d.find_instance(name.substr(0, slash));
  if (!inst) return std::nullopt;
  const auto pin_idx = d.cell_of(*inst).find_pin(name.substr(slash + 1));
  if (!pin_idx) return std::nullopt;
  return d.instance(*inst).pins[*pin_idx];
}

}  // namespace

void write_spef(std::ostream& os, const net::Design& design, const Parasitics& para) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "*NWSPEF 1\n*DESIGN " << design.name() << "\n";
  for (std::size_t i = 0; i < para.net_count(); ++i) {
    const NetId id{i};
    const RcNet& rc = para.net(id);
    os << "*NET " << design.net(id).name << ' ' << rc.node_count() << "\n";
    for (std::uint32_t n = 0; n < rc.node_count(); ++n) {
      const RcNode& node = rc.node(n);
      if (node.cground != 0.0) os << "*C " << n << ' ' << node.cground << "\n";
      if (node.pin.valid()) os << "*P " << n << ' ' << design.pin_name(node.pin) << "\n";
    }
    for (const auto& r : rc.resistors()) {
      os << "*R " << r.a << ' ' << r.b << ' ' << r.r << "\n";
    }
    os << "*ENDNET\n";
  }
  for (const auto& cc : para.couplings()) {
    os << "*CC " << design.net(cc.net_a).name << ' ' << cc.node_a << ' '
       << design.net(cc.net_b).name << ' ' << cc.node_b << ' ' << cc.c << "\n";
  }
  os << "*END\n";
}

std::string write_spef_string(const net::Design& design, const Parasitics& para) {
  std::ostringstream os;
  write_spef(os, design, para);
  return os.str();
}

Parasitics read_spef(std::istream& is, const net::Design& design) {
  Parasitics para(design.net_count());
  LineReader lr(is, "nwspef", "//");
  std::vector<bool> attached(design.pin_count(), false);

  // Range-check one value: no allocation unless it fails.
  auto value = [&](std::string_view tok, double max, const char* what) {
    const double v = lr.number(tok, what);
    if (!(v >= 0.0 && v <= max)) {
      std::ostringstream os;
      os << what << " value " << v << " outside [0, " << max << "]";
      lr.fail(os.str());
    }
    return v;
  };
  // A node index of `net`. Node counts are capped by kMaxSpefNetNodes, so
  // an index in range also fits the 32-bit node ids.
  auto node = [&](NetId net, std::string_view tok, const char* what) {
    const RcNet& rc = para.net(net);
    const auto n = lr.integer(tok, what);
    if (n >= rc.node_count()) {
      lr.fail(std::string(what) + " node " + std::to_string(n) + " out of range: net '" +
              design.net(net).name + "' has " + std::to_string(rc.node_count()) + " nodes");
    }
    return static_cast<std::uint32_t>(n);
  };

  NetId cur_net;
  bool in_net = false;
  bool saw_header = false;
  for (auto toks = lr.next(); !toks.empty(); toks = lr.next()) {
    const auto key = toks[0];
    // RcNet and Parasitics refuse degenerate elements (a self-loop or zero
    // resistor, a zero or same-net coupling) with std::invalid_argument;
    // report it with the line it came from.
    try {
      if (key == "*NWSPEF") {
        saw_header = true;
      } else if (key == "*DESIGN") {
        // informational
      } else if (key == "*NET") {
        if (!saw_header) lr.fail("missing *NWSPEF header");
        if (in_net) lr.fail("nested *NET");
        if (toks.size() < 3) lr.fail("short *NET line");
        const auto id = design.find_net(toks[1]);
        if (!id) lr.fail("unknown net '" + std::string(toks[1]) + "'");
        cur_net = *id;
        in_net = true;
        const auto n_nodes = lr.integer(toks[2], "*NET node count");
        if (n_nodes > kMaxSpefNetNodes) {
          lr.fail("*NET node count " + std::to_string(n_nodes) + " exceeds " +
                  std::to_string(kMaxSpefNetNodes));
        }
        RcNet& rc = para.net(cur_net);
        while (rc.node_count() < n_nodes) rc.add_node();
      } else if (key == "*C") {
        if (!in_net || toks.size() < 3) lr.fail("bad *C line");
        para.net(cur_net).add_cap(node(cur_net, toks[1], "*C"),
                                  value(toks[2], kMaxCapacitance, "*C"));
      } else if (key == "*P") {
        if (!in_net || toks.size() < 3) lr.fail("bad *P line");
        const std::uint32_t n = node(cur_net, toks[1], "*P");
        const auto pin = resolve_pin(design, toks[2]);
        if (!pin) lr.fail("*P: unknown pin '" + std::string(toks[2]) + "'");
        const NetId pin_net = design.pin(*pin).net;
        if (pin_net != cur_net) {
          lr.fail("*P: pin '" + std::string(toks[2]) + "' is on net '" +
                  (pin_net.valid() ? design.net(pin_net).name : std::string("(none)")) +
                  "', not '" + design.net(cur_net).name + "'");
        }
        if (attached[pin->index()]) {
          lr.fail("*P: pin '" + std::string(toks[2]) + "' is already attached");
        }
        if (para.net(cur_net).node(n).pin.valid()) {
          lr.fail("*P: node " + std::to_string(n) + " already has a pin");
        }
        para.net(cur_net).attach_pin(n, *pin);
        attached[pin->index()] = true;
      } else if (key == "*R") {
        if (!in_net || toks.size() < 4) lr.fail("bad *R line");
        para.net(cur_net).add_res(node(cur_net, toks[1], "*R"), node(cur_net, toks[2], "*R"),
                                  value(toks[3], kMaxResistance, "*R"));
      } else if (key == "*ENDNET") {
        if (!in_net) lr.fail("*ENDNET outside net");
        in_net = false;
      } else if (key == "*CC") {
        if (in_net) lr.fail("*CC inside net section");
        if (toks.size() < 6) lr.fail("short *CC line");
        const auto a = design.find_net(toks[1]);
        const auto b = design.find_net(toks[3]);
        if (!a || !b) lr.fail("unknown net in *CC");
        para.add_coupling(*a, node(*a, toks[2], "*CC"), *b, node(*b, toks[4], "*CC"),
                          value(toks[5], kMaxCapacitance, "*CC"));
      } else if (key == "*END") {
        return para;
      } else {
        lr.fail("unknown keyword '" + std::string(key) + "'");
      }
    } catch (const std::invalid_argument& e) {
      lr.fail(e.what());
    }
  }
  lr.fail("missing *END");
}

Parasitics read_spef_string(const std::string& text, const net::Design& design) {
  std::istringstream is(text);
  return read_spef(is, design);
}

}  // namespace nw::para
