#include "parasitics/spef.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace nw::para {

namespace {

/// Resolve "inst/PIN" or a port name to a PinId.
PinId resolve_pin(const net::Design& d, std::string_view name) {
  const auto slash = name.find('/');
  if (slash != std::string_view::npos) {
    const auto inst = d.find_instance(std::string(name.substr(0, slash)));
    if (!inst) throw std::runtime_error("nwspef: unknown instance in '" + std::string(name) + "'");
    const auto& cell = d.cell_of(*inst);
    const auto pin_idx = cell.find_pin(std::string(name.substr(slash + 1)));
    if (!pin_idx) throw std::runtime_error("nwspef: unknown pin in '" + std::string(name) + "'");
    return d.instance(*inst).pins.at(*pin_idx);
  }
  for (const auto p : d.input_ports()) {
    if (d.pin(p).port_name == name) return p;
  }
  for (const auto p : d.output_ports()) {
    if (d.pin(p).port_name == name) return p;
  }
  throw std::runtime_error("nwspef: unknown port '" + std::string(name) + "'");
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
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error("nwspef line " + std::to_string(lineno) + ": " + msg);
  };

  // Range-check one value: no allocation unless it fails.
  auto value = [&](std::string_view tok, double max, const char* what) {
    double v = 0.0;
    try {
      v = nw::parse_double(tok);
    } catch (const std::invalid_argument& e) {
      fail(std::string(what) + ": " + e.what());
    }
    if (!(v >= 0.0 && v <= max)) {
      std::ostringstream os;
      os << what << " value " << v << " outside [0, " << max << "]";
      fail(os.str());
    }
    return v;
  };

  NetId cur_net;
  bool in_net = false;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    const auto t = nw::trim(line);
    if (t.empty() || nw::starts_with(t, "//")) continue;
    const auto toks = nw::split(t);
    const auto key = toks[0];
    if (key == "*NWSPEF") {
      saw_header = true;
    } else if (key == "*DESIGN") {
      // informational
    } else if (key == "*NET") {
      if (!saw_header) fail("missing *NWSPEF header");
      if (in_net) fail("nested *NET");
      if (toks.size() < 3) fail("short *NET line");
      const auto id = design.find_net(std::string(toks[1]));
      if (!id) fail("unknown net '" + std::string(toks[1]) + "'");
      cur_net = *id;
      in_net = true;
      const auto n_nodes = nw::parse_uint(toks[2]);
      if (n_nodes > kMaxSpefNetNodes) {
        fail("*NET node count " + std::to_string(n_nodes) + " exceeds " +
             std::to_string(kMaxSpefNetNodes));
      }
      RcNet& rc = para.net(cur_net);
      while (rc.node_count() < n_nodes) rc.add_node();
    } else if (key == "*C") {
      if (!in_net || toks.size() < 3) fail("bad *C line");
      para.net(cur_net).add_cap(static_cast<std::uint32_t>(nw::parse_uint(toks[1])),
                                value(toks[2], kMaxSpefCapacitance, "*C"));
    } else if (key == "*P") {
      if (!in_net || toks.size() < 3) fail("bad *P line");
      para.net(cur_net).attach_pin(static_cast<std::uint32_t>(nw::parse_uint(toks[1])),
                                   resolve_pin(design, toks[2]));
    } else if (key == "*R") {
      if (!in_net || toks.size() < 4) fail("bad *R line");
      para.net(cur_net).add_res(static_cast<std::uint32_t>(nw::parse_uint(toks[1])),
                                static_cast<std::uint32_t>(nw::parse_uint(toks[2])),
                                value(toks[3], kMaxSpefResistance, "*R"));
    } else if (key == "*ENDNET") {
      if (!in_net) fail("*ENDNET outside net");
      in_net = false;
    } else if (key == "*CC") {
      if (in_net) fail("*CC inside net section");
      if (toks.size() < 6) fail("short *CC line");
      const auto a = design.find_net(std::string(toks[1]));
      const auto b = design.find_net(std::string(toks[3]));
      if (!a || !b) fail("unknown net in *CC");
      para.add_coupling(*a, static_cast<std::uint32_t>(nw::parse_uint(toks[2])), *b,
                        static_cast<std::uint32_t>(nw::parse_uint(toks[4])),
                        value(toks[5], kMaxSpefCapacitance, "*CC"));
    } else if (key == "*END") {
      return para;
    } else {
      fail("unknown keyword '" + std::string(key) + "'");
    }
  }
  fail("missing *END");
  return para;  // unreachable
}

Parasitics read_spef_string(const std::string& text, const net::Design& design) {
  std::istringstream is(text);
  return read_spef(is, design);
}

}  // namespace nw::para
