// Tests for the command-line flag parser (support/args.hpp).

#include "support/args.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

namespace aa::support {
namespace {

Args parse(std::vector<std::string> tokens,
           const std::vector<std::string>& known) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;  // Keeps c_str() alive.
  storage = std::move(tokens);
  storage.insert(storage.begin(), "prog");
  argv.reserve(storage.size());
  for (auto& token : storage) argv.push_back(token.data());
  return Args(static_cast<int>(argv.size()), argv.data(), known);
}

TEST(Args, SpaceSeparatedFlags) {
  const Args args = parse({"--alpha", "2.5", "--seed", "7"},
                          {"alpha", "seed"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 2.5);
  EXPECT_EQ(args.get_int("seed", 0), 7);
}

TEST(Args, EqualsSeparatedFlags) {
  const Args args = parse({"--dist=powerlaw", "--beta=3"},
                          {"dist", "beta"});
  EXPECT_EQ(args.get("dist", ""), "powerlaw");
  EXPECT_EQ(args.get_int("beta", 0), 3);
}

TEST(Args, DefaultsWhenAbsent) {
  const Args args = parse({}, {"alpha"});
  EXPECT_EQ(args.get("alpha", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 1.5), 1.5);
  EXPECT_EQ(args.get_int("alpha", 42), 42);
}

TEST(Args, PositionalArguments) {
  const Args args = parse({"input.json", "--seed", "1", "more.txt"},
                          {"seed"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.json");
  EXPECT_EQ(args.positional()[1], "more.txt");
}

TEST(Args, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--typo", "1"}, {"seed"}), std::runtime_error);
}

TEST(Args, MissingValueThrows) {
  EXPECT_THROW(parse({"--seed"}, {"seed"}), std::runtime_error);
}

TEST(Args, LastOccurrenceWins) {
  const Args args = parse({"--seed", "1", "--seed", "2"}, {"seed"});
  EXPECT_EQ(args.get_int("seed", 0), 2);
}

TEST(Args, CountFlagRejectsNegative) {
  const Args args = parse({"--servers", "3", "--workers=-1"},
                          {"servers", "workers", "shards"});
  EXPECT_EQ(args.get_count("servers", 2), 3u);
  EXPECT_EQ(args.get_count("shards", 4), 4u);
  try {
    static_cast<void>(args.get_count("workers", 2));
    FAIL() << "a negative count was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--workers"), std::string::npos)
        << error.what();
  }
}

TEST(Args, CountFlagAcceptsZero) {
  const Args args = parse({"--tenants=0", "--connections", "0"},
                          {"tenants", "connections"});
  EXPECT_EQ(args.get_count("tenants", 5), 0u);
  EXPECT_EQ(args.get_count("connections", 1), 0u);
}

TEST(Args, CountFlagRejectsNonNumeric) {
  const Args args = parse({"--servers", "two"}, {"servers"});
  EXPECT_THROW(static_cast<void>(args.get_count("servers", 2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace aa::support
