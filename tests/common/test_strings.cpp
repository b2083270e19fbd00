#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace {

TEST(Split, BasicAndEdgeCases) {
  EXPECT_EQ(hs::split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(hs::split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(hs::split("a,", ','), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(hs::split(",a", ','), (std::vector<std::string>{"", "a"}));
  EXPECT_EQ(hs::split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Trim, RemovesSurroundingWhitespaceOnly) {
  EXPECT_EQ(hs::trim("  x y  "), "x y");
  EXPECT_EQ(hs::trim("\t\nx\r "), "x");
  EXPECT_EQ(hs::trim(""), "");
  EXPECT_EQ(hs::trim("   "), "");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(hs::starts_with("--flag", "--"));
  EXPECT_FALSE(hs::starts_with("-flag", "--"));
  EXPECT_TRUE(hs::starts_with("abc", ""));
  EXPECT_FALSE(hs::starts_with("a", "ab"));
}

struct IntCase {
  const char* text;
  bool ok;
  long long value;
};

// Without this gtest prints the raw struct bytes (a string pointer and
// padding), which differ from run to run and so give the discovered ctest
// cases a different name on every build.
void PrintTo(const IntCase& c, std::ostream* os) {
  *os << "parse_int(" << c.text << ") ";
  if (c.ok) {
    *os << "is " << c.value;
  } else {
    *os << "fails";
  }
}

class ParseIntTest : public ::testing::TestWithParam<IntCase> {};

TEST_P(ParseIntTest, Parses) {
  const auto& c = GetParam();
  const auto result = hs::parse_int(c.text);
  EXPECT_EQ(result.has_value(), c.ok) << c.text;
  if (c.ok) {
    EXPECT_EQ(*result, c.value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseIntTest,
    ::testing::Values(IntCase{"0", true, 0}, IntCase{"42", true, 42},
                      IntCase{"-17", true, -17}, IntCase{" 8 ", true, 8},
                      IntCase{"", false, 0}, IntCase{"x", false, 0},
                      IntCase{"12x", false, 0}, IntCase{"1.5", false, 0},
                      IntCase{"9223372036854775807", true,
                              9223372036854775807LL}));

TEST(ParseDouble, AcceptsFloatsAndRejectsJunk) {
  EXPECT_DOUBLE_EQ(*hs::parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*hs::parse_double("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(*hs::parse_double("-3"), -3.0);
  EXPECT_FALSE(hs::parse_double("abc").has_value());
  EXPECT_FALSE(hs::parse_double("1.2.3").has_value());
  EXPECT_FALSE(hs::parse_double("").has_value());
}

TEST(ParseIntList, ParsesAndRejects) {
  EXPECT_EQ(*hs::parse_int_list("1,2,3"), (std::vector<long long>{1, 2, 3}));
  EXPECT_EQ(*hs::parse_int_list("7"), (std::vector<long long>{7}));
  EXPECT_FALSE(hs::parse_int_list("1,,3").has_value());
  EXPECT_FALSE(hs::parse_int_list("1,a").has_value());
}

}  // namespace
