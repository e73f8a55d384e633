#include "netlist/verilog.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace nw::net {

void write_netlist(std::ostream& os, const Design& design) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "module " << design.name() << "\n";
  for (const PinId p : design.input_ports()) {
    const PortDrive& pd = design.port_drive(p);
    os << "input " << design.port_name(p) << ' ' << design.net(design.pin(p).net).name
       << " drive " << pd.resistance << " slew " << pd.slew << "\n";
  }
  for (const PinId p : design.output_ports()) {
    os << "output " << design.port_name(p) << ' ' << design.net(design.pin(p).net).name
       << " cap " << design.pin_cap(p) << "\n";
  }
  // Wires not already introduced by a port line.
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const Net& n = design.net(NetId{i});
    bool from_port = false;
    if (n.driver.valid() && design.pin(n.driver).kind == PinKind::kInputPort) {
      from_port = true;
    }
    for (const PinId l : n.loads) {
      from_port |= design.pin(l).kind == PinKind::kOutputPort;
    }
    if (!from_port) os << "wire " << n.name << "\n";
  }
  for (std::size_t i = 0; i < design.instance_count(); ++i) {
    const Instance& inst = design.instance(InstId{i});
    const lib::Cell& cell = design.library().cell(inst.cell);
    os << "inst " << inst.name << ' ' << cell.name;
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      const Pin& p = design.pin(inst.pins[pi]);
      if (!p.net.valid()) continue;
      os << ' ' << cell.pins[pi].name << '=' << design.net(p.net).name;
    }
    os << "\n";
  }
  os << "endmodule\n";
}

std::string write_netlist_string(const Design& design) {
  std::ostringstream os;
  write_netlist(os, design);
  return os.str();
}

Design read_netlist(std::istream& is, const lib::Library& library) {
  LineReader lr(is, "nv", "//");
  Design design(library, "top");
  bool in_module = false;

  auto get_or_make_net = [&](std::string_view name) {
    const auto id = design.find_net(name);
    if (id) return *id;
    return design.add_net(name);
  };
  // A port attribute in [lo, hi] (or (lo, hi] when `lo_open`).
  auto attribute = [&](std::string_view tok, std::string_view what, double lo, bool lo_open,
                       double hi) {
    const double v = lr.number(tok, what);
    if (!(lo_open ? v > lo : v >= lo) || !(v <= hi)) {
      std::ostringstream os;
      os << what << " value " << v << " outside " << (lo_open ? '(' : '[') << lo << ", " << hi
         << ']';
      lr.fail(os.str());
    }
    return v;
  };
  // `input`/`output` lines: <port> <net> followed by <name> <value> pairs.
  auto attributes = [&](std::span<const std::string_view> toks, auto&& apply) {
    if (toks.size() % 2 == 0) lr.fail("attribute '" + std::string(toks.back()) + "' has no value");
    for (std::size_t i = 3; i < toks.size(); i += 2) apply(toks[i], toks[i + 1]);
  };

  for (auto toks = lr.next(); !toks.empty(); toks = lr.next()) {
    const auto key = toks[0];
    // Design refuses bad connectivity (duplicate names, unknown cells or
    // pins, a second driver) with std::invalid_argument; report it with the
    // line it came from.
    try {
      if (key == "module") {
        if (in_module) lr.fail("nested module");
        if (toks.size() < 2) lr.fail("module needs a name");
        design = Design(library, std::string(toks[1]));
        in_module = true;
      } else if (key == "endmodule") {
        if (!in_module) lr.fail("endmodule outside module");
        return design;
      } else if (key == "input") {
        if (!in_module || toks.size() < 3) lr.fail("bad input line");
        PortDrive pd;
        attributes(toks, [&](std::string_view name, std::string_view value) {
          if (name == "drive") {
            pd.resistance = attribute(value, "drive", 0.0, true, kMaxResistance);
          } else if (name == "slew") {
            pd.slew = attribute(value, "slew", 0.0, false, kMaxSlew);
          } else {
            lr.fail("unknown input attribute '" + std::string(name) + "'");
          }
        });
        design.add_input_port(toks[1], get_or_make_net(toks[2]), pd);
      } else if (key == "output") {
        if (!in_module || toks.size() < 3) lr.fail("bad output line");
        double cap = 5e-15;
        attributes(toks, [&](std::string_view name, std::string_view value) {
          if (name == "cap") {
            cap = attribute(value, "cap", 0.0, false, kMaxCapacitance);
          } else {
            lr.fail("unknown output attribute '" + std::string(name) + "'");
          }
        });
        design.add_output_port(toks[1], get_or_make_net(toks[2]), cap);
      } else if (key == "wire") {
        if (!in_module || toks.size() < 2) lr.fail("bad wire line");
        if (design.find_net(toks[1])) lr.fail("duplicate wire '" + std::string(toks[1]) + "'");
        design.add_net(toks[1]);
      } else if (key == "inst") {
        if (!in_module || toks.size() < 3) lr.fail("bad inst line");
        const InstId inst = design.add_instance(toks[1], toks[2]);
        for (const std::string_view conn : toks.subspan(3)) {
          const auto eq = conn.find('=');
          if (eq == std::string_view::npos) {
            lr.fail("expected PIN=net, got '" + std::string(conn) + "'");
          }
          const auto net = design.find_net(conn.substr(eq + 1));
          if (!net) lr.fail("undeclared net '" + std::string(conn.substr(eq + 1)) + "'");
          design.connect(inst, conn.substr(0, eq), *net);
        }
      } else {
        lr.fail("unknown keyword '" + std::string(key) + "'");
      }
    } catch (const std::invalid_argument& e) {
      lr.fail(e.what());
    }
  }
  lr.fail("missing endmodule");
}

Design read_netlist_string(const std::string& text, const lib::Library& library) {
  std::istringstream is(text);
  return read_netlist(is, library);
}

}  // namespace nw::net
