// SPEF-like format round-trip against a real design.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/randlogic.hpp"
#include "library/library.hpp"
#include "netlist/design.hpp"
#include "netlist/verilog.hpp"
#include "parasitics/spef.hpp"

namespace nw::para {
namespace {

struct Fixture {
  lib::Library library = lib::default_library();
  net::Design design{library, "spef_test"};
  NetId a, b;

  Fixture() {
    a = design.add_net("na");
    b = design.add_net("nb");
    design.add_input_port("ia", a);
    design.add_input_port("ib", b);
    const InstId g1 = design.add_instance("g1", "INV_X1");
    const InstId g2 = design.add_instance("g2", "INV_X1");
    design.connect(g1, "A", a);
    design.connect(g2, "A", b);
    const NetId ya = design.add_net("ya");
    const NetId yb = design.add_net("yb");
    design.connect(g1, "Y", ya);
    design.connect(g2, "Y", yb);
    design.add_output_port("oa", ya);
    design.add_output_port("ob", yb);
  }

  Parasitics make_para() const {
    Parasitics p(design.net_count());
    RcNet& ra = p.net(a);
    const auto a1 = ra.add_node(2e-15);
    ra.add_res(0, a1, 55.5);
    ra.add_cap(0, 1e-15);
    ra.attach_pin(a1, design.net(a).loads.front());
    RcNet& rb = p.net(b);
    const auto b1 = rb.add_node(3e-15);
    rb.add_res(0, b1, 44.25);
    rb.attach_pin(b1, design.net(b).loads.front());
    p.add_coupling(a, a1, b, b1, 4.5e-15);
    return p;
  }
};

TEST(Spef, RoundTrip) {
  const Fixture f;
  const Parasitics p = f.make_para();
  const std::string text = write_spef_string(f.design, p);
  const Parasitics back = read_spef_string(text, f.design);

  ASSERT_EQ(back.net_count(), p.net_count());
  for (std::size_t i = 0; i < p.net_count(); ++i) {
    const RcNet& x = p.net(NetId{i});
    const RcNet& y = back.net(NetId{i});
    ASSERT_EQ(x.node_count(), y.node_count()) << "net " << i;
    EXPECT_DOUBLE_EQ(x.total_ground_cap(), y.total_ground_cap());
    EXPECT_DOUBLE_EQ(x.total_res(), y.total_res());
    for (std::uint32_t n = 0; n < x.node_count(); ++n) {
      EXPECT_EQ(x.node(n).pin, y.node(n).pin);
    }
  }
  ASSERT_EQ(back.couplings().size(), 1u);
  EXPECT_DOUBLE_EQ(back.couplings()[0].c, 4.5e-15);
  EXPECT_EQ(back.couplings()[0].net_a, f.a);
  EXPECT_EQ(back.couplings()[0].node_a, 1u);
}

TEST(Spef, DoubleRoundTripIsIdentical) {
  const Fixture f;
  const Parasitics p = f.make_para();
  const std::string once = write_spef_string(f.design, p);
  const std::string twice =
      write_spef_string(f.design, read_spef_string(once, f.design));
  EXPECT_EQ(once, twice);
}

TEST(Spef, ParseErrors) {
  const Fixture f;
  EXPECT_THROW((void)read_spef_string("", f.design), std::runtime_error);
  EXPECT_THROW((void)read_spef_string("*NET na 2\n*END\n", f.design),
               std::runtime_error);  // missing header
  EXPECT_THROW(
      (void)read_spef_string("*NWSPEF 1\n*NET bogus 2\n*ENDNET\n*END\n", f.design),
      std::runtime_error);
  EXPECT_THROW(
      (void)read_spef_string("*NWSPEF 1\n*NET na 2\n*P 1 nosuch/PIN\n*ENDNET\n*END\n",
                             f.design),
      std::runtime_error);
  EXPECT_THROW((void)read_spef_string("*NWSPEF 1\n*C 0 1e-15\n*END\n", f.design),
               std::runtime_error);  // *C outside net
  EXPECT_THROW((void)read_spef_string("*NWSPEF 1\n*NET na 1\n", f.design),
               std::runtime_error);  // missing *END

  // Each case: a body on line 2 onwards, the error it must raise and the
  // line that error must name. Net na has 2 nodes; g1/A loads na, not ya.
  struct Case {
    const char* body;
    const char* what;
    int line;
  };
  const Case cases[] = {
      // A node index that does not fit uint32_t used to wrap to node 0.
      {"*NET na 2\n*C 4294967296 1e-15\n", "*C node 4294967296 out of range", 3},
      // ...and one past the node count escaped as std::out_of_range.
      {"*NET na 2\n*C 5 1e-15\n", "*C node 5 out of range", 3},
      {"*NET na 2\n*C x 1e-15\n", "*C: parse_uint: bad integer 'x'", 3},
      {"*NET na 2\n*R 0 7 10\n", "*R node 7 out of range", 3},
      {"*NET na 2\n*P 9 g1/A\n", "*P node 9 out of range", 3},
      {"*NET na 2\n*ENDNET\n*NET nb 2\n*ENDNET\n*CC na 0 nb 2 1e-15\n",
       "*CC node 2 out of range", 6},
      // A *P naming a pin of another net used to put that load on this tree.
      {"*NET ya 2\n*P 1 g1/A\n", "pin 'g1/A' is on net 'na', not 'ya'", 3},
      {"*NET na 3\n*P 1 g1/A\n*P 2 g1/A\n", "pin 'g1/A' is already attached", 4},
      {"*NET na 2\n*P 1 ia\n*P 1 g1/A\n", "node 1 already has a pin", 4},
      {"*NET na 2\n*R 1 1 10\n", "self-loop", 3},
  };
  for (const Case& c : cases) {
    try {
      (void)read_spef_string(std::string("*NWSPEF 1\n") + c.body + "*ENDNET\n*END\n", f.design);
      ADD_FAILURE() << "no error for:\n" << c.body;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("nwspef line " + std::to_string(c.line) + ": "), std::string::npos)
          << msg;
      EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
    }
  }
}

/// The error read_spef_string raises on `body` (between header and *END).
std::string spef_error(const Fixture& f, const std::string& body) {
  try {
    (void)read_spef_string("*NWSPEF 1\n" + body + "*END\n", f.design);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(Spef, NonFiniteValuesRejected) {
  const Fixture f;
  for (const char* v : {"nan", "inf", "-inf"}) {
    const std::string err = spef_error(f, std::string("*NET na 2\n*C 0 ") + v + "\n*ENDNET\n");
    EXPECT_NE(err.find("*C: parse_double: non-finite number"), std::string::npos) << err;
  }
}

TEST(Spef, GroundCapOutsidePhysicalRangeRejected) {
  const Fixture f;
  // A ground cap of 1.5e308 used to overflow net sums to infinity.
  EXPECT_NE(spef_error(f, "*NET na 2\n*C 0 1.5e308\n*ENDNET\n").find("*C value"),
            std::string::npos);
  EXPECT_NE(spef_error(f, "*NET na 2\n*C 0 -1e-15\n*ENDNET\n").find("outside"),
            std::string::npos);
  EXPECT_EQ(spef_error(f, "*NET na 2\n*C 0 1e-9\n*ENDNET\n"), "");  // at the limit
}

TEST(Spef, ResistanceOutsidePhysicalRangeRejected) {
  const Fixture f;
  EXPECT_NE(spef_error(f, "*NET na 2\n*R 0 1 1e300\n*ENDNET\n").find("*R value"),
            std::string::npos);
  EXPECT_NE(spef_error(f, "*NET na 2\n*R 0 1 -5\n*ENDNET\n").find("*R value"),
            std::string::npos);
}

TEST(Spef, CouplingCapOutsidePhysicalRangeRejected) {
  const Fixture f;
  EXPECT_NE(spef_error(f, "*NET na 2\n*ENDNET\n*NET nb 2\n*ENDNET\n"
                          "*CC na 0 nb 0 1.5e308\n")
                .find("*CC value"),
            std::string::npos);
}

TEST(Spef, NodeCountBeyondLimitRejected) {
  const Fixture f;
  // The reader used to add nodes up to whatever count the file claimed.
  const std::string err = spef_error(f, "*NET na 4294967295\n*ENDNET\n");
  EXPECT_NE(err.find("*NET node count 4294967295 exceeds"), std::string::npos) << err;
}

TEST(Spef, ResolvesPortsAndInstancePins) {
  const Fixture f;
  const std::string text =
      "*NWSPEF 1\n"
      "*DESIGN spef_test\n"
      "*NET na 2\n"
      "*C 1 1e-15\n"
      "*P 0 ia\n"
      "*P 1 g1/A\n"
      "*R 0 1 10\n"
      "*ENDNET\n"
      "*NET ya 2\n"
      "*P 0 g1/Y\n"
      "*P 1 oa\n"
      "*R 0 1 10\n"
      "*ENDNET\n"
      "*END\n";
  const Parasitics p = read_spef_string(text, f.design);
  const RcNet& rc = p.net(f.a);
  EXPECT_EQ(rc.node_count(), 2u);
  EXPECT_EQ(rc.node(0).pin, f.design.find_port("ia"));
  EXPECT_EQ(f.design.pin_name(rc.node(0).pin), "ia");
  EXPECT_EQ(f.design.pin_name(rc.node(1).pin), "g1/A");
  const RcNet& ry = p.net(*f.design.find_net("ya"));
  EXPECT_EQ(f.design.pin_name(ry.node(0).pin), "g1/Y");
  EXPECT_EQ(ry.node(1).pin, f.design.find_port("oa"));
  EXPECT_EQ(f.design.port_name(ry.node(1).pin), "oa");
}

TEST(Spef, LargeDesignRoundTripIsIdentical) {
  // Enough gates for well over 1k output ports, so every port *P line goes
  // through the design's port index rather than a short list.
  const lib::Library library = lib::default_library();
  gen::RandLogicConfig cfg;
  cfg.gates = 5000;
  cfg.seed = 11;
  const gen::Generated g = gen::make_rand_logic(library, cfg);
  ASSERT_GE(g.design.output_ports().size(), 1000u);

  // Write, read, write again: identical bytes. Reading renumbers nets (the
  // .nv writer lists port nets first), so the .nwspef pass starts from the
  // read design.
  const std::string nv = net::write_netlist_string(g.design);
  const net::Design d = net::read_netlist_string(nv, library);
  EXPECT_TRUE(net::write_netlist_string(d) == nv);
  const Parasitics p = read_spef_string(write_spef_string(g.design, g.para), d);
  const std::string spef = write_spef_string(d, p);
  EXPECT_TRUE(write_spef_string(d, read_spef_string(spef, d)) == spef);

  // Net for net: same driver, loads and RC tree pins, by name.
  ASSERT_EQ(d.net_count(), g.design.net_count());
  const auto name = [](const net::Design& des, PinId pin) {
    return pin.valid() ? des.pin_name(pin) : std::string();
  };
  const auto names = [&](const net::Design& des, const std::vector<PinId>& pins) {
    std::vector<std::string> out;
    for (const PinId pin : pins) out.push_back(name(des, pin));
    return out;
  };
  for (std::size_t i = 0; i < g.design.net_count(); ++i) {
    const net::Net& want = g.design.net(NetId{i});
    const auto id = d.find_net(want.name);
    ASSERT_TRUE(id.has_value()) << want.name;
    const net::Net& got = d.net(*id);
    EXPECT_EQ(name(d, got.driver), name(g.design, want.driver)) << want.name;
    EXPECT_EQ(names(d, got.loads), names(g.design, want.loads)) << want.name;
    const RcNet& rw = g.para.net(NetId{i});
    const RcNet& rg = p.net(*id);
    ASSERT_EQ(rg.node_count(), rw.node_count()) << want.name;
    EXPECT_EQ(rg.res_count(), rw.res_count()) << want.name;
    for (std::uint32_t n = 0; n < rw.node_count(); ++n) {
      EXPECT_EQ(name(d, rg.node(n).pin), name(g.design, rw.node(n).pin))
          << want.name << " node " << n;
    }
  }
  EXPECT_EQ(p.couplings().size(), g.para.couplings().size());
  ASSERT_EQ(d.output_ports().size(), g.design.output_ports().size());
  for (std::size_t i = 0; i < d.output_ports().size(); ++i) {
    const PinId port = d.output_ports()[i];
    EXPECT_EQ(d.port_name(port), g.design.port_name(g.design.output_ports()[i]));
    EXPECT_EQ(d.find_port(d.port_name(port)), port);
  }
}

}  // namespace
}  // namespace nw::para
