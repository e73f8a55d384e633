// String utilities used by the parsers.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace nw {
namespace {

TEST(Trim, Basics) {
  EXPECT_EQ(trim("  hello "), "hello");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(Split, Basics) {
  std::vector<std::string_view> t;
  split("a b  c", t);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "b");
  EXPECT_EQ(t[2], "c");
}

TEST(Split, CustomDelims) {
  std::vector<std::string_view> t;
  split("a,b;;c", t, ",;");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[2], "c");
}

TEST(Split, EmptyAndAllDelims) {
  std::vector<std::string_view> t{"stale"};
  split("", t);
  EXPECT_TRUE(t.empty());
  split("   ", t);
  EXPECT_TRUE(t.empty());
}

TEST(Split, ReusesTheCallersBuffer) {
  std::vector<std::string_view> t;
  split("one two three four", t);
  const auto* storage = t.data();
  const auto capacity = t.capacity();
  split("x y", t);  // clears, keeps the allocation
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1], "y");
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.capacity(), capacity);
}

TEST(LineReader, SkipsBlankAndCommentLinesAndCountsLines) {
  std::istringstream in("# header\n\n  a  b \n# c\nd\n");
  LineReader lr(in, "fmt", "#");
  const auto line_of = [&lr] {
    try {
      lr.fail("here");
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
  };
  auto toks = lr.next();
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[1], "b");
  EXPECT_EQ(line_of(), "fmt line 3: here");
  toks = lr.next();
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0], "d");
  EXPECT_EQ(line_of(), "fmt line 5: here");
  EXPECT_TRUE(lr.next().empty());
}

TEST(LineReader, ErrorsNameFormatAndLine) {
  std::istringstream in("x\ny 1.5 abc\n");
  LineReader lr(in, "fmt", "#");
  (void)lr.next();
  const auto toks = lr.next();
  EXPECT_DOUBLE_EQ(lr.number(toks[1], "lo"), 1.5);
  try {
    (void)lr.number(toks[2], "hi");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "fmt line 2: hi: parse_double: bad number 'abc'");
  }
  EXPECT_THROW((void)lr.integer(toks[1], "n"), std::runtime_error);
}

TEST(StringMap, FindsByStringView) {
  StringMap<int> m;
  m.emplace("alpha", 1);
  const std::string_view key = std::string_view("xalphax").substr(1, 5);
  ASSERT_NE(m.find(key), m.end());
  EXPECT_EQ(m.find(key)->second, 1);
  EXPECT_EQ(m.find(std::string_view("beta")), m.end());
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("*NET foo", "*NET"));
  EXPECT_FALSE(starts_with("*NE", "*NET"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e-15"), -1e-15);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_THROW((void)parse_double("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("1.5x"), std::invalid_argument);
  EXPECT_THROW((void)parse_double(""), std::invalid_argument);
}

TEST(ParseDouble, NonFiniteRejected) {
  for (const char* s : {"nan", "-nan", "inf", "-inf", "infinity", "1e999"}) {
    EXPECT_THROW((void)parse_double(s), std::invalid_argument) << s;
  }
}

TEST(ParseUint, Valid) {
  EXPECT_EQ(parse_uint("42"), 42ul);
  EXPECT_EQ(parse_uint("0"), 0ul);
}

TEST(ParseUint, Invalid) {
  EXPECT_THROW((void)parse_uint("-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_uint("12.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_uint(""), std::invalid_argument);
}

}  // namespace
}  // namespace nw
