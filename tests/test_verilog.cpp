// .nv netlist format round-trip and error handling.
#include <gtest/gtest.h>

#include "gen/pipeline.hpp"
#include "gen/randlogic.hpp"
#include "library/library.hpp"
#include "netlist/verilog.hpp"

namespace nw::net {
namespace {

class VerilogTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();
};

TEST_F(VerilogTest, RoundTripSmallDesign) {
  Design d(library_, "rt");
  const NetId a = d.add_net("a");
  const NetId y = d.add_net("y");
  d.add_input_port("in", a, {750.0, 2.5e-11});
  const InstId g = d.add_instance("g0", "NAND2_X1");
  d.connect(g, "A", a);
  d.connect(g, "B", a);
  d.connect(g, "Y", y);
  d.add_output_port("out", y, 7e-15);

  const std::string text = write_netlist_string(d);
  const Design back = read_netlist_string(text, library_);

  EXPECT_EQ(back.name(), "rt");
  EXPECT_EQ(back.net_count(), d.net_count());
  EXPECT_EQ(back.instance_count(), d.instance_count());
  EXPECT_TRUE(back.lint().empty());
  // Port attributes survive.
  const PinId in = back.input_ports().front();
  EXPECT_DOUBLE_EQ(back.port_drive(in).resistance, 750.0);
  EXPECT_DOUBLE_EQ(back.port_drive(in).slew, 2.5e-11);
  EXPECT_DOUBLE_EQ(back.pin_cap(back.output_ports().front()), 7e-15);
  // Connectivity survives: g0/Y drives y, loaded by the out port.
  const auto yn = back.find_net("y");
  ASSERT_TRUE(yn.has_value());
  EXPECT_EQ(back.pin_name(back.net(*yn).driver), "g0/Y");
}

TEST_F(VerilogTest, DoubleRoundTripIsIdentical) {
  gen::Generated g = gen::make_rand_logic(library_, {});
  const std::string once = write_netlist_string(g.design);
  const std::string twice =
      write_netlist_string(read_netlist_string(once, library_));
  EXPECT_EQ(once, twice);
}

TEST_F(VerilogTest, RoundTripSequentialDesign) {
  gen::Generated g = gen::make_pipeline(library_, {});
  const Design back = read_netlist_string(write_netlist_string(g.design), library_);
  EXPECT_EQ(back.sequentials().size(), g.design.sequentials().size());
  EXPECT_TRUE(back.lint().empty());
  EXPECT_NO_THROW((void)back.topological_order());
}

TEST_F(VerilogTest, CommentsAndBlankLines) {
  const std::string text =
      "// a comment\n"
      "module t\n"
      "\n"
      "input i n0\n"
      "output o n0\n"
      "endmodule\n";
  const Design d = read_netlist_string(text, library_);
  EXPECT_EQ(d.net_count(), 1u);
  EXPECT_EQ(d.input_ports().size(), 1u);
}

TEST_F(VerilogTest, Errors) {
  auto expect_fail = [&](const std::string& text) {
    EXPECT_THROW((void)read_netlist_string(text, library_), std::runtime_error) << text;
  };
  expect_fail("");                                       // no module
  expect_fail("module t\n");                             // missing endmodule
  expect_fail("module t\nmodule u\nendmodule\n");        // nested module
  expect_fail("module t\nbogus x\nendmodule\n");         // unknown keyword
  expect_fail("module t\ninst g NOPE\nendmodule\n");     // unknown cell
  expect_fail("module t\ninst g INV_X1 A=w\nendmodule\n");  // undeclared net
  expect_fail("module t\nwire w\ninst g INV_X1 Q=w\nendmodule\n");  // bad pin
  expect_fail("module t\nwire w\nwire w\nendmodule\n");  // duplicate wire
  expect_fail("module t\ninput i n0 bogus 5\nendmodule\n");  // bad attribute

  // Each case: the error must name its line and what went wrong.
  struct Case {
    const char* text;
    const char* what;
    int line;
  };
  const Case cases[] = {
      {"module t\ninput i n0 drive abc\nendmodule\n", "drive: parse_double: bad number", 2},
      {"module t\ninput i n0 drive\nendmodule\n", "attribute 'drive' has no value", 2},
      // Duplicate port names: two inputs, or an input and an output.
      {"module t\ninput i n0\ninput i n1\nendmodule\n", "duplicate port 'i'", 3},
      {"module t\ninput ia n0\noutput ia n1\nendmodule\n", "duplicate port 'ia'", 3},
      // Port attributes outside their physical ranges.
      {"module t\ninput i n0 drive -5 slew 1e-11\nendmodule\n", "drive value -5 outside (0", 2},
      {"module t\ninput i n0 drive 0\nendmodule\n", "drive value 0 outside (0", 2},
      {"module t\ninput i n0 drive 2e9\nendmodule\n", "drive value 2e+09 outside", 2},
      {"module t\ninput i n0 slew -1\nendmodule\n", "slew value -1 outside [0", 2},
      {"module t\ninput i n0 slew 1\nendmodule\n", "slew value 1 outside [0", 2},
      {"module t\ninput i n0 slew nan\nendmodule\n", "slew: parse_double: non-finite", 2},
      {"module t\nwire n0\noutput o n0 cap -1\nendmodule\n", "cap value -1 outside [0", 3},
      {"module t\nwire n0\noutput o n0 cap 1e-3\nendmodule\n", "cap value 0.001 outside", 3},
      {"module t\ninput i n0\ninput j n0\nendmodule\n", "already has a driver", 3},
  };
  for (const Case& c : cases) {
    try {
      (void)read_netlist_string(c.text, library_);
      ADD_FAILURE() << "no error for:\n" << c.text;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("nv line " + std::to_string(c.line) + ": "), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
    }
  }
}

TEST_F(VerilogTest, PortAttributesAtTheirLimitsLoad) {
  const Design d = read_netlist_string(
      "module t\ninput i n0 drive 1e9 slew 0\noutput o n0 cap 0\n"
      "output p n0 cap 1e-9\nendmodule\n",
      library_);
  EXPECT_DOUBLE_EQ(d.port_drive(*d.find_port("i")).resistance, 1e9);
  EXPECT_DOUBLE_EQ(d.pin_cap(*d.find_port("p")), 1e-9);
}

TEST_F(VerilogTest, DoubleDriverFailsWithLineNumber) {
  const std::string text =
      "module t\n"
      "wire w\n"
      "inst g1 INV_X1 Y=w\n"
      "inst g2 INV_X1 Y=w\n"
      "endmodule\n";
  try {
    (void)read_netlist_string(text, library_);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace nw::net
