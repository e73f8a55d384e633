#include "library/liberty_io.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace nw::lib {

namespace {

void write_doubles(std::ostream& os, std::span<const double> xs) {
  for (const double x : xs) os << ' ' << x;
}

void write_t1(std::ostream& os, const char* key, const Table1D& t) {
  os << key << " t1 " << t.size() << " ;";
  write_doubles(os, t.axis());
  os << " ;";
  write_doubles(os, t.values());
  os << "\n";
}

void write_t2(std::ostream& os, const char* key, const Table2D& t) {
  os << key << " t2 " << t.x_axis().size() << ' ' << t.y_axis().size() << " ;";
  write_doubles(os, t.x_axis());
  os << " ;";
  write_doubles(os, t.y_axis());
  os << " ;";
  write_doubles(os, t.values());
  os << "\n";
}

const char* sense_str(ArcSense s) {
  switch (s) {
    case ArcSense::kPositiveUnate: return "pos";
    case ArcSense::kNegativeUnate: return "neg";
    case ArcSense::kNonUnate: return "non";
  }
  return "neg";
}

ArcSense parse_sense(const LineReader& lr, std::string_view s) {
  if (s == "pos") return ArcSense::kPositiveUnate;
  if (s == "neg") return ArcSense::kNegativeUnate;
  if (s == "non") return ArcSense::kNonUnate;
  lr.fail("bad arc sense '" + std::string(s) + "'");
}

const char* kind_str(CellKind k) {
  switch (k) {
    case CellKind::kCombinational: return "comb";
    case CellKind::kDff: return "dff";
    case CellKind::kLatch: return "latch";
  }
  return "comb";
}

CellKind parse_kind(const LineReader& lr, std::string_view s) {
  if (s == "comb") return CellKind::kCombinational;
  if (s == "dff") return CellKind::kDff;
  if (s == "latch") return CellKind::kLatch;
  lr.fail("bad cell kind '" + std::string(s) + "'");
}

const char* role_str(PinRole r) {
  switch (r) {
    case PinRole::kNone: return "none";
    case PinRole::kClock: return "clock";
    case PinRole::kData: return "data";
    case PinRole::kEnable: return "enable";
  }
  return "none";
}

PinRole parse_role(const LineReader& lr, std::string_view s) {
  if (s == "none") return PinRole::kNone;
  if (s == "clock") return PinRole::kClock;
  if (s == "data") return PinRole::kData;
  if (s == "enable") return PinRole::kEnable;
  lr.fail("bad pin role '" + std::string(s) + "'");
}

/// Read `; <count numbers>` at toks[i], advancing i past them. The count
/// comes from the file, so it is checked against the tokens left on the
/// line before anything is reserved.
std::vector<double> take_group(LineReader& lr, std::span<const std::string_view> toks,
                               std::size_t& i, std::size_t count, const char* table) {
  if (i >= toks.size() || toks[i] != ";") lr.fail(std::string("expected ';' in ") + table);
  ++i;
  if (count > toks.size() - i) {
    lr.fail(std::string(table) + ": count " + std::to_string(count) +
            " exceeds the " + std::to_string(toks.size() - i) + " numbers left on the line");
  }
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) out.push_back(lr.number(toks[i++], table));
  return out;
}

/// Parse `t1 <n> ; axis ; values` starting at toks[start].
Table1D parse_t1(LineReader& lr, std::span<const std::string_view> toks, std::size_t start) {
  if (start >= toks.size() || toks[start] != "t1") lr.fail("expected t1 table");
  if (start + 1 >= toks.size()) lr.fail("t1: missing size");
  const std::size_t n = lr.integer(toks[start + 1], "t1 size");
  std::size_t i = start + 2;
  auto axis = take_group(lr, toks, i, n, "t1");
  auto vals = take_group(lr, toks, i, n, "t1");
  return Table1D(std::move(axis), std::move(vals));
}

/// Parse `t2 <nx> <ny> ; xs ; ys ; values` starting at toks[start].
Table2D parse_t2(LineReader& lr, std::span<const std::string_view> toks, std::size_t start) {
  if (start >= toks.size() || toks[start] != "t2") lr.fail("expected t2 table");
  if (start + 2 >= toks.size()) lr.fail("t2: missing sizes");
  const std::size_t nx = lr.integer(toks[start + 1], "t2 size");
  const std::size_t ny = lr.integer(toks[start + 2], "t2 size");
  if (ny != 0 && nx > std::numeric_limits<std::size_t>::max() / ny) {
    lr.fail("t2: size " + std::to_string(nx) + " x " + std::to_string(ny) + " overflows");
  }
  std::size_t i = start + 3;
  auto xs = take_group(lr, toks, i, nx, "t2");
  auto ys = take_group(lr, toks, i, ny, "t2");
  auto vals = take_group(lr, toks, i, nx * ny, "t2");
  return Table2D(std::move(xs), std::move(ys), std::move(vals));
}

}  // namespace

void write_library(std::ostream& os, const Library& lib) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "library " << lib.name() << " vdd " << lib.vdd() << "\n";
  for (const auto& c : lib.cells()) {
    os << "cell " << c.name << " kind " << kind_str(c.kind) << " drive "
       << c.drive_resistance << " holdres " << c.holding_resistance << " setup "
       << c.setup << " holdt " << c.hold << "\n";
    for (const auto& p : c.pins) {
      os << "pin " << p.name << ' ' << (p.dir == PinDir::kInput ? "input" : "output")
         << " role " << role_str(p.role) << " cap " << p.cap << "\n";
    }
    for (const auto& a : c.arcs) {
      os << "arc " << a.from_pin << ' ' << a.to_pin << ' ' << sense_str(a.sense) << "\n";
      write_t2(os, "delay_rise", a.delay_rise);
      write_t2(os, "delay_fall", a.delay_fall);
      write_t2(os, "slew_rise", a.slew_rise);
      write_t2(os, "slew_fall", a.slew_fall);
    }
    write_t1(os, "immunity", c.immunity.threshold_vs_width);
    write_t2(os, "prop_peak", c.propagation.out_peak);
    write_t2(os, "prop_width", c.propagation.out_width);
    os << "end_cell\n";
  }
  os << "end_library\n";
}

std::string write_library_string(const Library& lib) {
  std::ostringstream os;
  write_library(os, lib);
  return os.str();
}

Library read_library(std::istream& is) {
  LineReader lr(is, "nlib", "#");
  auto toks = lr.next();
  if (toks.size() < 4 || toks[0] != "library" || toks[2] != "vdd") {
    lr.fail("expected 'library <name> vdd <v>'");
  }
  Library lib(std::string(toks[1]), lr.number(toks[3], "vdd"));

  Cell cur;
  bool in_cell = false;
  for (toks = lr.next(); !toks.empty(); toks = lr.next()) {
    // Tables and the library refuse bad contents (an axis out of order,
    // a duplicate cell) with std::invalid_argument; report it with the
    // line it came from.
    try {
      const auto key = toks[0];
      if (key == "end_library") return lib;
      if (key == "cell") {
        if (in_cell) lr.fail("nested cell");
        if (toks.size() < 12) lr.fail("short cell header");
        cur = Cell{};
        cur.name = std::string(toks[1]);
        cur.kind = parse_kind(lr, toks[3]);
        cur.drive_resistance = lr.number(toks[5], "drive");
        cur.holding_resistance = lr.number(toks[7], "holdres");
        cur.setup = lr.number(toks[9], "setup");
        cur.hold = lr.number(toks[11], "holdt");
        in_cell = true;
      } else if (key == "pin") {
        if (!in_cell || toks.size() < 7) lr.fail("bad pin line");
        Pin p;
        p.name = std::string(toks[1]);
        p.dir = (toks[2] == "input") ? PinDir::kInput : PinDir::kOutput;
        p.role = parse_role(lr, toks[4]);
        p.cap = lr.number(toks[6], "cap");
        cur.pins.push_back(std::move(p));
      } else if (key == "arc") {
        if (!in_cell || toks.size() < 4) lr.fail("bad arc line");
        TimingArc arc;
        arc.from_pin = lr.integer(toks[1], "arc from pin");
        arc.to_pin = lr.integer(toks[2], "arc to pin");
        if (arc.from_pin >= cur.pins.size() || arc.to_pin >= cur.pins.size()) {
          lr.fail("arc pin index out of range (cell '" + cur.name + "' has " +
                  std::to_string(cur.pins.size()) + " pins so far)");
        }
        arc.sense = parse_sense(lr, toks[3]);
        auto t = lr.next();
        if (t.empty() || t[0] != "delay_rise") lr.fail("expected delay_rise");
        arc.delay_rise = parse_t2(lr, t, 1);
        t = lr.next();
        if (t.empty() || t[0] != "delay_fall") lr.fail("expected delay_fall");
        arc.delay_fall = parse_t2(lr, t, 1);
        t = lr.next();
        if (t.empty() || t[0] != "slew_rise") lr.fail("expected slew_rise");
        arc.slew_rise = parse_t2(lr, t, 1);
        t = lr.next();
        if (t.empty() || t[0] != "slew_fall") lr.fail("expected slew_fall");
        arc.slew_fall = parse_t2(lr, t, 1);
        cur.arcs.push_back(std::move(arc));
      } else if (key == "immunity") {
        if (!in_cell) lr.fail("immunity outside cell");
        cur.immunity.threshold_vs_width = parse_t1(lr, toks, 1);
      } else if (key == "prop_peak") {
        if (!in_cell) lr.fail("prop_peak outside cell");
        cur.propagation.out_peak = parse_t2(lr, toks, 1);
      } else if (key == "prop_width") {
        if (!in_cell) lr.fail("prop_width outside cell");
        cur.propagation.out_width = parse_t2(lr, toks, 1);
      } else if (key == "end_cell") {
        if (!in_cell) lr.fail("end_cell outside cell");
        lib.add_cell(std::move(cur));
        in_cell = false;
      } else {
        lr.fail("unknown keyword '" + std::string(key) + "'");
      }
    } catch (const std::invalid_argument& e) {
      lr.fail(e.what());
    }
  }
  lr.fail("missing end_library");
}

Library read_library_string(const std::string& text) {
  std::istringstream is(text);
  return read_library(is);
}

}  // namespace nw::lib
