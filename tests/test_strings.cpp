// String utilities used by the parsers.
#include <gtest/gtest.h>

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
  const auto t = split("a b  c");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "b");
  EXPECT_EQ(t[2], "c");
}

TEST(Split, CustomDelims) {
  const auto t = split("a,b;;c", ",;");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[2], "c");
}

TEST(Split, EmptyAndAllDelims) {
  EXPECT_TRUE(split("").empty());
  EXPECT_TRUE(split("   ").empty());
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
