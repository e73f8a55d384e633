// SPEF-like format round-trip against a real design.
#include <gtest/gtest.h>

#include "library/library.hpp"
#include "netlist/design.hpp"
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
      "*P 1 g1/A\n"
      "*R 0 1 10\n"
      "*ENDNET\n"
      "*END\n";
  const Parasitics p = read_spef_string(text, f.design);
  const RcNet& rc = p.net(f.a);
  EXPECT_EQ(rc.node_count(), 2u);
  EXPECT_EQ(f.design.pin_name(rc.node(1).pin), "g1/A");
}

}  // namespace
}  // namespace nw::para
