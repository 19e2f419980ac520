// CLI argument-parser tests.
#include <gtest/gtest.h>

#include "../tools/args.h"

namespace apollo::tools {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()),
              const_cast<char**>(argv.data()));
}

TEST(Args, ValuesAndDefaults) {
  auto a = parse({"--steps", "100", "--lr", "0.01", "--name", "apollo"});
  EXPECT_EQ(a.get_int("steps", 5), 100);
  EXPECT_DOUBLE_EQ(a.get_double("lr", 1.0), 0.01);
  EXPECT_EQ(a.get("name", "x"), "apollo");
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_EQ(a.get("missing2", "dflt"), "dflt");
}

TEST(Args, BareFlags) {
  auto a = parse({"--verbose", "--steps", "3"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_FALSE(a.has("quiet"));
  EXPECT_EQ(a.get_int("steps", 0), 3);
}

TEST(Args, FlagFollowedByFlagIsBare) {
  auto a = parse({"--quantize", "--steps", "3"});
  EXPECT_TRUE(a.has("quantize"));
  EXPECT_EQ(a.get("quantize", "x"), "");
}

TEST(Args, UnknownDetection) {
  auto a = parse({"--known", "1", "--typo", "2"});
  (void)a.get_int("known", 0);
  auto unknown = a.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--typo");
}

TEST(Args, Positional) {
  auto a = parse({"file1.txt", "--x", "1", "file2.txt"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "file1.txt");
  EXPECT_EQ(a.positional()[1], "file2.txt");
}

TEST(Args, NegativeNumbersAsValues) {
  // "-1" does not start with "--", so it parses as a value.
  auto a = parse({"--rank", "-1"});
  EXPECT_EQ(a.get_int("rank", 0), -1);
}

TEST(Args, WellFormedValuesLeaveNoError) {
  auto a = parse({"--steps", "100", "--lr", "1e-3", "--rank", "-1"});
  EXPECT_EQ(a.get_int("steps", 5), 100);
  EXPECT_DOUBLE_EQ(a.get_double("lr", 1.0), 1e-3);
  EXPECT_EQ(a.get_int("rank", 0), -1);
  EXPECT_EQ(a.error(), "");
}

TEST(Args, IntegerWithExponentIsAnError) {
  auto a = parse({"--steps", "1e3"});
  EXPECT_EQ(a.get_int("steps", 400), 400);
  EXPECT_EQ(a.error(), "--steps expects an integer, got '1e3'");
}

TEST(Args, NumberWithTrailingCharactersIsAnError) {
  auto a = parse({"--lr", "1e-3x"});
  EXPECT_DOUBLE_EQ(a.get_double("lr", 0.5), 0.5);
  EXPECT_EQ(a.error(), "--lr expects a number, got '1e-3x'");
}

TEST(Args, EmptyValueIsAnError) {
  // A bare --steps followed by another flag has the empty value.
  auto a = parse({"--steps", "--batch", "2"});
  EXPECT_EQ(a.get_int("steps", 400), 400);
  EXPECT_EQ(a.get_int("batch", 4), 2);
  EXPECT_EQ(a.error(), "--steps expects an integer, got ''");
}

TEST(Args, OutOfRangeIntegerIsAnError) {
  auto a = parse({"--seed", "99999999999999999999", "--lr", "1e999"});
  EXPECT_EQ(a.get_long("seed", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("lr", 0.5), 0.5);
  // The first failure is the one reported.
  EXPECT_EQ(a.error(),
            "--seed expects an integer, got '99999999999999999999'");

  // get_int refuses what does not fit an int instead of wrapping it;
  // get_long takes the same value.
  auto b = parse({"--steps", "4294967297", "--seed", "4294967297"});
  EXPECT_EQ(b.get_long("seed", 42), 4294967297L);
  EXPECT_EQ(b.error(), "");
  EXPECT_EQ(b.get_int("steps", 400), 400);
  EXPECT_EQ(b.error(), "--steps expects an integer, got '4294967297'");

  auto c = parse({"--hi", "2147483647", "--lo", "-2147483648", "--over",
                  "2147483648", "--under", "-2147483649"});
  EXPECT_EQ(c.get_int("hi", 0), 2147483647);
  EXPECT_EQ(c.get_int("lo", 0), -2147483647 - 1);
  EXPECT_EQ(c.error(), "");
  EXPECT_EQ(c.get_int("over", 0), 0);
  EXPECT_EQ(c.get_int("under", 0), 0);
  EXPECT_EQ(c.error(), "--over expects an integer, got '2147483648'");

  auto d = parse({"--under", "-2147483649"});
  EXPECT_EQ(d.get_int("under", 5), 5);
  EXPECT_EQ(d.error(), "--under expects an integer, got '-2147483649'");
}

}  // namespace
}  // namespace apollo::tools
