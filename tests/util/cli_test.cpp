#include "mcs/util/cli.hpp"

#include <gtest/gtest.h>

namespace mcs::util {
namespace {

Cli parse(std::vector<const char*> argv,
          std::map<std::string, std::string> allowed) {
  argv.insert(argv.begin(), "prog");
  return Cli(static_cast<int>(argv.size()), argv.data(), std::move(allowed));
}

const std::map<std::string, std::string> kOpts{
    {"trials", "number of trials"},
    {"seed", "rng seed"},
    {"csv", "csv output path"},
    {"full", "full fidelity"},
};

TEST(CliTest, SpaceSeparatedValues) {
  const Cli cli = parse({"--trials", "500", "--seed", "9"}, kOpts);
  EXPECT_EQ(cli.get_or("trials", std::uint64_t{0}), 500u);
  EXPECT_EQ(cli.get_or("seed", std::uint64_t{0}), 9u);
}

TEST(CliTest, EqualsSeparatedValues) {
  const Cli cli = parse({"--trials=123"}, kOpts);
  EXPECT_EQ(cli.get_or("trials", std::uint64_t{0}), 123u);
}

TEST(CliTest, BooleanFlags) {
  const Cli cli = parse({"--full", "--trials", "10"}, kOpts);
  EXPECT_TRUE(cli.has("full"));
  EXPECT_FALSE(cli.has("csv"));
}

TEST(CliTest, DefaultsWhenAbsent) {
  const Cli cli = parse({}, kOpts);
  EXPECT_EQ(cli.get_or("trials", std::uint64_t{77}), 77u);
  EXPECT_DOUBLE_EQ(cli.get_or("seed", 1.5), 1.5);
  EXPECT_EQ(cli.get_or("csv", std::string{"none"}), "none");
  EXPECT_FALSE(cli.get("csv").has_value());
}

TEST(CliTest, UnknownOptionThrows) {
  EXPECT_THROW(parse({"--bogus", "1"}, kOpts), std::invalid_argument);
}

TEST(CliTest, PositionalArgumentThrows) {
  EXPECT_THROW(parse({"stray"}, kOpts), std::invalid_argument);
}

TEST(CliTest, MalformedNumberThrows) {
  // The whole token must parse: no trailing junk, no exponent or sign on an
  // unsigned value, no wrap past 2^64, and doubles must be finite.
  for (const char* bad : {"abc", "", "12abc", "1e3", "2x", "-3", "+3", " 7",
                          "18446744073709551616"}) {
    const Cli cli = parse({"--trials", bad}, kOpts);
    EXPECT_THROW((void)cli.get_or("trials", std::uint64_t{0}),
                 std::invalid_argument)
        << "'" << bad << "'";
  }
  for (const char* bad : {"abc", "", "0.5x", "nan", "inf", "-inf", "1e999"}) {
    const Cli cli = parse({"--seed", bad}, kOpts);
    EXPECT_THROW((void)cli.get_or("seed", 0.0), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(CliTest, HelpFlag) {
  const Cli cli = parse({"--help"}, kOpts);
  EXPECT_TRUE(cli.help_requested());
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--trials"), std::string::npos);
  EXPECT_NE(usage.find("usage: prog"), std::string::npos);
}

TEST(CliTest, DoubleValues) {
  const Cli cli = parse({"--seed", "0.25"}, kOpts);
  EXPECT_DOUBLE_EQ(cli.get_or("seed", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(parse({"--seed", "-1e-3"}, kOpts).get_or("seed", 0.0),
                   -1e-3);
  EXPECT_EQ(parse({"--trials", "18446744073709551615"}, kOpts)
                .get_or("trials", std::uint64_t{0}),
            18446744073709551615u);
}

}  // namespace
}  // namespace mcs::util
