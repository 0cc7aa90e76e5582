#include "util/cli_args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sic {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"sicmac"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser{static_cast<int>(argv.size()), argv.data()};
}

TEST(ArgParser, CommandAndFlags) {
  const auto p = parse({"pair", "--s1", "24", "--s2", "12", "--verbose"});
  EXPECT_EQ(p.command(), "pair");
  EXPECT_DOUBLE_EQ(p.get_double("s1", 0.0), 24.0);
  EXPECT_DOUBLE_EQ(p.get_double("s2", 0.0), 12.0);
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_FALSE(p.has("quiet"));
}

TEST(ArgParser, NoCommand) {
  const auto p = parse({"--trials", "100"});
  EXPECT_TRUE(p.command().empty());
  EXPECT_EQ(p.get_int("trials", 0), 100);
}

TEST(ArgParser, Defaults) {
  const auto p = parse({"run"});
  EXPECT_DOUBLE_EQ(p.get_double("missing", 3.5), 3.5);
  EXPECT_EQ(p.get_int("missing", 7), 7);
  EXPECT_EQ(p.get_string("missing", "x"), "x");
  EXPECT_EQ(p.get_u64("missing", 42u), 42u);
  EXPECT_TRUE(p.get_double_list("missing").empty());
}

TEST(ArgParser, DoubleList) {
  const auto p = parse({"schedule", "--clients", "24,12,18.5"});
  const auto xs = p.get_double_list("clients");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0], 24.0);
  EXPECT_DOUBLE_EQ(xs[2], 18.5);
}

TEST(ArgParser, BooleanFlagFollowedByFlag) {
  const auto p = parse({"x", "--fast", "--seed", "9"});
  EXPECT_TRUE(p.has("fast"));
  EXPECT_FALSE(p.get("fast").has_value());
  EXPECT_EQ(p.get_u64("seed", 0), 9u);
}

TEST(ArgParser, NegativeNumbersAreValues) {
  // "-5" is not a --flag, so it binds as a value.
  const auto p = parse({"x", "--snr", "-5"});
  EXPECT_DOUBLE_EQ(p.get_double("snr", 0.0), -5.0);
}

TEST(ArgParser, MalformedNumberThrows) {
  const auto p = parse({"x", "--snr", "abc"});
  EXPECT_THROW((void)p.get_double("snr", 0.0), std::runtime_error);
}

TEST(ArgParser, StrayPositionalRejected) {
  std::vector<const char*> argv{"sicmac", "cmd", "oops"};
  EXPECT_THROW(ArgParser(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(ArgParser, UsageErrorsAreTyped) {
  // The CLI maps UsageError to its usage exit code; both failure shapes
  // must throw the typed error (still a runtime_error for legacy sites).
  const auto p = parse({"x", "--snr", "abc"});
  EXPECT_THROW((void)p.get_double("snr", 0.0), UsageError);
  std::vector<const char*> argv{"sicmac", "cmd", "oops"};
  EXPECT_THROW(ArgParser(static_cast<int>(argv.size()), argv.data()),
               UsageError);
  static_assert(std::is_base_of_v<std::runtime_error, UsageError>);
}

/// True when \p get throws a UsageError naming --\p flag.
template <typename Get>
bool rejects(const std::string& flag, Get&& get) {
  try {
    (void)get();
  } catch (const UsageError& e) {
    return std::string{e.what()}.find("--" + flag) != std::string::npos;
  }
  return false;
}

// Each shape below used to reach a cast with undefined behaviour or an
// internal check; now it is a UsageError naming the flag.

TEST(ArgParser, NonFiniteNumbersRejected) {
  for (const char* text : {"nan", "inf", "-inf", "1e400"}) {
    const auto p = parse({"x", "--d", text, "--list", text, "--seed", text});
    EXPECT_TRUE(rejects("d", [&] { return p.get_double("d", 0.0); })) << text;
    EXPECT_TRUE(rejects("list", [&] { return p.get_double_list("list"); }));
    EXPECT_TRUE(rejects("seed", [&] { return p.get_u64("seed", 0); }));
  }
}

TEST(ArgParser, FractionalIntegersRejected) {
  const auto p = parse({"x", "--n", "2.5", "--q", "4,0.5", "--seed", "0.5"});
  EXPECT_TRUE(rejects("n", [&] { return p.get_int("n", 0); }));
  EXPECT_TRUE(rejects("q", [&] { return p.get_int_list("q"); }));
  EXPECT_TRUE(rejects("seed", [&] { return p.get_u64("seed", 0); }));
  EXPECT_EQ(parse({"x", "--q", "1e3,-2"}).get_int_list("q"),
            (std::vector<int>{1000, -2}));
}

TEST(ArgParser, OutOfRangeIntegersRejected) {
  const auto p = parse({"x", "--n", "2147483648", "--m", "-2147483649",
                        "--seed", "18446744073709551616"});
  EXPECT_TRUE(rejects("n", [&] { return p.get_int("n", 0); }));
  EXPECT_TRUE(rejects("m", [&] { return p.get_int("m", 0); }));
  EXPECT_TRUE(rejects("seed", [&] { return p.get_u64("seed", 0); }));
  // Plain digits parse exactly, past 2^53 too.
  EXPECT_EQ(parse({"x", "--seed", "18446744073709551615"}).get_u64("seed", 0),
            18446744073709551615ULL);
}

TEST(ArgParser, NegativeU64Rejected) {
  const auto p = parse({"x", "--seed", "-1"});
  EXPECT_TRUE(rejects("seed", [&] { return p.get_u64("seed", 0); }));
}

TEST(ArgParser, ThreadCountsAboveTheCeilingRejected) {
  EXPECT_EQ(parse({"x", "--threads", "256"}).get_threads(), 256);
  EXPECT_EQ(parse({"x", "--threads", "0"}).get_threads(), 0);
  const auto p = parse({"x", "--threads", "257", "--list", "1,100000",
                        "--huge", "1e12"});
  EXPECT_TRUE(rejects("threads", [&] { return p.get_threads(); }));
  EXPECT_TRUE(rejects("list", [&] { return p.get_threads_list("list"); }));
  EXPECT_TRUE(rejects("huge", [&] { return p.get_threads_list("huge"); }));
  EXPECT_EQ(parse({"x", "--list", "1,4,256"}).get_threads_list("list"),
            (std::vector<int>{1, 4, 256}));
}

TEST(ArgParser, UnknownFlagDetection) {
  const auto p = parse({"x", "--used", "1", "--typo", "2"});
  (void)p.get_double("used", 0.0);
  const auto unknown = p.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ArgParser, RepeatedFlagRejected) {
  // Valued or boolean, a flag's second occurrence is a usage error; the
  // first value is never silently kept.
  EXPECT_TRUE(rejects("clients", [] {
    return parse({"schedule", "--clients", "20,10", "--clients", "5,3"});
  }));
  EXPECT_TRUE(rejects("epochs", [] {
    return parse({"deploy", "--epochs", "30", "--seed", "2", "--epochs", "5"});
  }));
  EXPECT_TRUE(rejects("open-loop", [] {
    return parse({"deploy", "--open-loop", "--open-loop"});
  }));
  // Distinct flags that share a prefix are not repeats.
  const auto p = parse({"x", "--seed", "1", "--seeds", "3"});
  EXPECT_EQ(p.get_u64("seed", 0), 1u);
  EXPECT_EQ(p.get_int("seeds", 0), 3);
}

}  // namespace
}  // namespace sic
