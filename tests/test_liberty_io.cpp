// .nlib serialization round-trip and error handling.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "library/liberty_io.hpp"

namespace nw::lib {
namespace {

TEST(LibertyIo, RoundTripDefaultLibrary) {
  const Library lib = default_library();
  const std::string text = write_library_string(lib);
  const Library back = read_library_string(text);

  EXPECT_EQ(back.name(), lib.name());
  EXPECT_DOUBLE_EQ(back.vdd(), lib.vdd());
  ASSERT_EQ(back.size(), lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const Cell& a = lib.cell(i);
    const Cell& b = back.cell(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.drive_resistance, b.drive_resistance);
    EXPECT_DOUBLE_EQ(a.holding_resistance, b.holding_resistance);
    EXPECT_DOUBLE_EQ(a.setup, b.setup);
    EXPECT_DOUBLE_EQ(a.hold, b.hold);
    ASSERT_EQ(a.pins.size(), b.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_EQ(a.pins[p].name, b.pins[p].name);
      EXPECT_EQ(a.pins[p].dir, b.pins[p].dir);
      EXPECT_EQ(a.pins[p].role, b.pins[p].role);
      EXPECT_DOUBLE_EQ(a.pins[p].cap, b.pins[p].cap);
    }
    ASSERT_EQ(a.arcs.size(), b.arcs.size());
    for (std::size_t k = 0; k < a.arcs.size(); ++k) {
      EXPECT_EQ(a.arcs[k].from_pin, b.arcs[k].from_pin);
      EXPECT_EQ(a.arcs[k].to_pin, b.arcs[k].to_pin);
      EXPECT_EQ(a.arcs[k].sense, b.arcs[k].sense);
      // Exact table round-trip at a probe point.
      EXPECT_DOUBLE_EQ(a.arcs[k].delay_rise.lookup(3e-11, 1e-14),
                       b.arcs[k].delay_rise.lookup(3e-11, 1e-14));
      EXPECT_DOUBLE_EQ(a.arcs[k].slew_fall.lookup(1e-10, 5e-14),
                       b.arcs[k].slew_fall.lookup(1e-10, 5e-14));
    }
    EXPECT_DOUBLE_EQ(a.immunity.threshold(7e-11), b.immunity.threshold(7e-11));
    EXPECT_DOUBLE_EQ(a.propagation.out_peak.lookup(0.6, 1e-10),
                     b.propagation.out_peak.lookup(0.6, 1e-10));
    EXPECT_DOUBLE_EQ(a.propagation.out_width.lookup(0.6, 1e-10),
                     b.propagation.out_width.lookup(0.6, 1e-10));
  }
}

TEST(LibertyIo, DoubleRoundTripIsIdentical) {
  const Library lib = default_library();
  const std::string once = write_library_string(lib);
  const std::string twice = write_library_string(read_library_string(once));
  EXPECT_EQ(once, twice);
}

TEST(LibertyIo, CommentsAndBlanksIgnored) {
  const std::string text =
      "# a comment\n"
      "\n"
      "library t vdd 1\n"
      "# another\n"
      "end_library\n";
  const Library lib = read_library_string(text);
  EXPECT_EQ(lib.name(), "t");
  EXPECT_EQ(lib.size(), 0u);
}

TEST(LibertyIo, Errors) {
  EXPECT_THROW((void)read_library_string("bogus\n"), std::runtime_error);
  EXPECT_THROW((void)read_library_string("library t vdd 1\n"), std::runtime_error);
  EXPECT_THROW((void)read_library_string("library t vdd 1\npin A input role none cap 0\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)read_library_string("library t vdd 1\ncell C kind bogus drive 1 holdres 1 "
                                "setup 0 holdt 0\nend_cell\nend_library\n"),
      std::runtime_error);
}

/// The default library's text with the first line starting with `key`
/// replaced by `line`.
std::string with_line(const std::string& key, const std::string& line) {
  std::istringstream in(write_library_string(default_library()));
  std::string out;
  std::string l;
  bool done = false;
  while (std::getline(in, l)) {
    if (!done && l.rfind(key, 0) == 0) {
      l = line;
      done = true;
    }
    out += l + "\n";
  }
  EXPECT_TRUE(done) << key;
  return out;
}

/// The error read_library_string raises on `text` ("" if it parses).
std::string read_error(const std::string& text) {
  try {
    (void)read_library_string(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(LibertyIo, TruncatedTableLinesAreNamedErrors) {
  EXPECT_NE(read_error(with_line("delay_rise", "delay_rise t2")).find("t2: missing sizes"),
            std::string::npos);
  EXPECT_NE(read_error(with_line("delay_rise", "delay_rise t2 3")).find("t2: missing sizes"),
            std::string::npos);
  EXPECT_NE(read_error(with_line("immunity", "immunity t1")).find("t1: missing size"),
            std::string::npos);
  EXPECT_NE(read_error(with_line("delay_rise", "delay_rise t2 2 2 ; 1 2 ; 1 2 ; 1"))
                .find("t2: count 4 exceeds"),
            std::string::npos);
}

TEST(LibertyIo, HugeTableCountsFailBeforeAllocating) {
  EXPECT_NE(read_error(with_line("immunity", "immunity t1 1000000000000000 ; 1 ; 1"))
                .find("t1: count 1000000000000000 exceeds"),
            std::string::npos);
  // 2^33 x 2^33 wraps a 64-bit size_t: the checked product refuses it.
  EXPECT_NE(read_error(with_line("prop_peak", "prop_peak t2 8589934592 8589934592 ; 1"))
                .find("overflows"),
            std::string::npos);
  EXPECT_NE(read_error(with_line("prop_peak", "prop_peak t2 1 4294967296 ; 1 ; 1"))
                .find("exceeds"),
            std::string::npos);
}

TEST(LibertyIo, ArcPinOutOfRangeIsNamedError) {
  EXPECT_NE(read_error(with_line("arc ", "arc 0 99 neg")).find("arc pin index out of range"),
            std::string::npos);
  EXPECT_NE(read_error(with_line("arc ", "arc 7 0 neg")).find("arc pin index out of range"),
            std::string::npos);
}

// Malformed numbers and table contents fail as std::runtime_error naming the
// line and the field, like the .nv and .nwspef readers.
TEST(LibertyIo, BadNumbersAreNamedLineErrors) {
  EXPECT_EQ(read_error("library x vdd abc\n").rfind("nlib line 1: vdd: ", 0), 0u);
  EXPECT_THROW((void)read_library_string("library x vdd abc\n"), std::runtime_error);
  const std::string bad_cap = read_error(with_line("pin ", "pin A input role none cap nan"));
  EXPECT_NE(bad_cap.find("nlib line "), std::string::npos) << bad_cap;
  EXPECT_NE(bad_cap.find("cap: "), std::string::npos) << bad_cap;
  EXPECT_NE(read_error(with_line("arc ", "arc x 0 neg")).find("arc from pin: "),
            std::string::npos);
  EXPECT_NE(read_error(with_line("immunity", "immunity t1 2 ; 1 zz ; 1 1")).find("t1: "),
            std::string::npos);
  EXPECT_NE(read_error(with_line("arc ", "arc 0 1 sideways")).find("bad arc sense"),
            std::string::npos);
  // A table the Table constructor refuses (axis out of order).
  const std::string unordered = read_error(with_line("immunity", "immunity t1 2 ; 2 1 ; 1 1"));
  EXPECT_NE(unordered.find("nlib line "), std::string::npos) << unordered;
  EXPECT_NE(unordered.find("not strictly increasing"), std::string::npos) << unordered;
}

}  // namespace
}  // namespace nw::lib
