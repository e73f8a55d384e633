// Mutation smoke test for the .nlib, .nv and .nwspef readers.
//
// A fixed-seed, fixed-budget run: each mutant of a small, valid fixture
// (byte flips, token swaps, truncations, huge or degenerate numbers, and
// duplicated or dropped lines) must either parse or throw
// std::runtime_error. Any other exception type fails the test, and a crash
// fails the run; under the sanitizer builds this also covers memory errors
// in the readers' hot loops.
#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "gen/randlogic.hpp"
#include "library/liberty_io.hpp"
#include "library/library.hpp"
#include "netlist/verilog.hpp"
#include "parasitics/spef.hpp"
#include "util/rng.hpp"

namespace nw {
namespace {

constexpr int kMutantsPerFormat = 2000;

/// Tokens that stress numeric fields and name lookups.
constexpr std::string_view kNastyTokens[] = {
    "4294967296", "18446744073709551616", "99999999999999999999999", "-1", "0",
    "1e308",      "-1e308",               "nan",                     "inf", "1e-400",
    "",           "/",                    "g0/",                     "/A",  "=",
    "A=",         "*NET",                 "*END",                    "endmodule",
};

/// Half-open [begin, end) byte ranges of whitespace-delimited tokens.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n')) ++i;
    const std::size_t start = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\n') ++i;
    if (i > start) out.emplace_back(start, i);
  }
  return out;
}

/// Half-open ranges of lines, each including its newline.
std::vector<std::pair<std::size_t, std::size_t>> line_spans(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t start = 0;
  while (start < s.size()) {
    auto end = s.find('\n', start);
    end = end == std::string::npos ? s.size() : end + 1;
    out.emplace_back(start, end);
    start = end;
  }
  return out;
}

std::string mutate(const std::string& text, Rng& rng) {
  std::string s = text;
  const auto tokens = token_spans(s);
  const auto lines = line_spans(s);
  switch (rng.below(6)) {
    case 0: {  // flip a few bytes
      const auto flips = 1 + rng.below(3);
      for (std::uint64_t k = 0; k < flips; ++k) {
        s[rng.below(s.size())] = static_cast<char>(rng.below(256));
      }
      break;
    }
    case 1: {  // swap two tokens
      const auto a = tokens[rng.below(tokens.size())];
      const auto b = tokens[rng.below(tokens.size())];
      const auto [first, second] = a.first < b.first ? std::pair{a, b} : std::pair{b, a};
      if (first.second > second.first) break;  // the same token
      const std::string ta = s.substr(first.first, first.second - first.first);
      const std::string tb = s.substr(second.first, second.second - second.first);
      s.replace(second.first, tb.size(), ta);
      s.replace(first.first, ta.size(), tb);
      break;
    }
    case 2:  // truncate
      s.resize(rng.below(s.size()));
      break;
    case 3: {  // replace a token by a huge or degenerate one
      const auto t = tokens[rng.below(tokens.size())];
      const auto nasty = kNastyTokens[rng.below(std::size(kNastyTokens))];
      s.replace(t.first, t.second - t.first, nasty);
      break;
    }
    case 4: {  // duplicate a line
      const auto l = lines[rng.below(lines.size())];
      const auto at = lines[rng.below(lines.size())].first;
      s.insert(at, text.substr(l.first, l.second - l.first));
      break;
    }
    default: {  // drop a line
      const auto l = lines[rng.below(lines.size())];
      s.erase(l.first, l.second - l.first);
      break;
    }
  }
  return s;
}

struct Fixture {
  lib::Library library = lib::default_library();
  gen::Generated g;
  std::string nlib;
  std::string nv;
  std::string spef;

  Fixture() : g(gen::make_rand_logic(library, small())) {
    // Two cells, one of each kind, keep the .nlib text as small as the
    // other two fixtures.
    lib::Library two(library.name(), library.vdd());
    two.add_cell(library.require("NAND2_X1"));
    two.add_cell(library.require("DFF_X1"));
    nlib = lib::write_library_string(two);
    nv = net::write_netlist_string(g.design);
    spef = para::write_spef_string(g.design, g.para);
  }

  static gen::RandLogicConfig small() {
    gen::RandLogicConfig cfg;
    cfg.primary_inputs = 4;
    cfg.gates = 12;
    cfg.levels = 3;
    cfg.coupling_prob = 0.8;
    cfg.dff_fraction = 0.3;
    cfg.seed = 3;
    return cfg;
  }
};

/// Run `parse` on `kMutantsPerFormat` mutants of `text`; returns how many
/// parsed. Fails the test on any exception other than std::runtime_error.
template <typename Parse>
int run_mutants(const std::string& text, std::uint64_t seed, Parse&& parse) {
  Rng rng(seed);
  int parsed = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const std::string mutant = mutate(text, rng);
    try {
      parse(mutant);
      ++parsed;
    } catch (const std::runtime_error&) {
      // the expected refusal
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as " << typeid(e).name() << ": "
                    << e.what() << "\n--- mutant ---\n" << mutant;
    }
  }
  return parsed;
}

TEST(ReaderMutation, LibraryMutantsParseOrThrowRuntimeError) {
  const Fixture f;
  const int parsed = run_mutants(f.nlib, 0x5eed0003, [&](const std::string& text) {
    (void)lib::read_library_string(text);
  });
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

TEST(ReaderMutation, NetlistMutantsParseOrThrowRuntimeError) {
  const Fixture f;
  const int parsed = run_mutants(f.nv, 0x5eed0001, [&](const std::string& text) {
    (void)net::read_netlist_string(text, f.library);
  });
  // Both outcomes occur: the mutations neither all miss nor all hit.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

TEST(ReaderMutation, SpefMutantsParseOrThrowRuntimeError) {
  const Fixture f;
  const int parsed = run_mutants(f.spef, 0x5eed0002, [&](const std::string& text) {
    const para::Parasitics p = para::read_spef_string(text, f.g.design);
    // A mutant that parses still attaches every pin to a node of its own net.
    for (std::size_t i = 0; i < p.net_count(); ++i) {
      const para::RcNet& rc = p.net(NetId{i});
      for (std::uint32_t n = 0; n < rc.node_count(); ++n) {
        const PinId pin = rc.node(n).pin;
        if (pin.valid()) {
          ASSERT_EQ(f.g.design.pin(pin).net, NetId{i});
        }
      }
    }
  });
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

}  // namespace
}  // namespace nw
