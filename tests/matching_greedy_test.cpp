#include "matching/greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "matching/blossom.hpp"
#include "matching/error.hpp"
#include "matching/oracle.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace sic::matching {
namespace {

TEST(Greedy, TakesCheapestEdgeFirst) {
  CostMatrix costs{4};
  costs.set(0, 1, 1.0);
  costs.set(2, 3, 100.0);
  costs.set(0, 2, 2.0);
  costs.set(1, 3, 2.0);
  costs.set(0, 3, 50.0);
  costs.set(1, 2, 50.0);
  const auto m = greedy_min_weight_perfect_matching(costs);
  EXPECT_DOUBLE_EQ(m.total_cost, 101.0);  // the greedy trap
}

TEST(Greedy, NeverBeatsBlossom) {
  Rng rng{21};
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 * rng.uniform_int(1, 8);
    CostMatrix costs{n};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) costs.set(i, j, rng.uniform(0.0, 10.0));
    }
    const auto greedy = greedy_min_weight_perfect_matching(costs);
    const auto exact = min_weight_perfect_matching(costs);
    EXPECT_GE(greedy.total_cost + 1e-9, exact.total_cost)
        << "n=" << n << " trial=" << trial;
  }
}

TEST(Greedy, ProducesPerfectMatching) {
  Rng rng{22};
  constexpr int n = 12;
  CostMatrix costs{n};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) costs.set(i, j, rng.uniform(0.0, 10.0));
  }
  const auto m = greedy_min_weight_perfect_matching(costs);
  std::vector<bool> seen(n, false);
  for (const auto& [a, b] : m.pairs) {
    EXPECT_FALSE(seen[a]);
    EXPECT_FALSE(seen[b]);
    seen[a] = seen[b] = true;
  }
  EXPECT_EQ(m.pairs.size(), static_cast<std::size_t>(n / 2));
}

TEST(Greedy, WithinTwiceBlossomOnSchedulerShapedCosts) {
  // Scheduler-shaped costs max(s_u, s_v) + U(0,1)·min(s_u, s_v) over solo
  // airtimes s_k, as Fig. 12 builds them, n = 4..32. (On unstructured
  // matrices greedy's ratio is unbounded.)
  Rng rng{7};
  for (int n = 4; n <= 32; n += 2) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> solo(static_cast<std::size_t>(n));
      for (double& s : solo) s = rng.uniform(1.0, 10.0);
      CostMatrix costs{n};
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          const double hi = std::max(solo[i], solo[j]);
          const double lo = std::min(solo[i], solo[j]);
          costs.set(i, j, hi + rng.uniform(0.0, 1.0) * lo);
        }
      }
      const double exact = min_weight_perfect_matching(costs).total_cost;
      const double greedy =
          greedy_min_weight_perfect_matching(costs).total_cost;
      EXPECT_LE(greedy, 2.0 * exact) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(CostMatrixEdges, OutParamOverloadIsBitIdentical) {
  Rng rng{23};
  CostMatrix costs{12};
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) costs.set(i, j, rng.uniform(1.0, 100.0));
  }
  const auto same = [](const WeightedEdge& a, const WeightedEdge& b) {
    return a.u == b.u && a.v == b.v && bitwise_equal(a.weight, b.weight);
  };
  const auto fresh = costs.edges();
  std::vector<WeightedEdge> reused;
  reused.reserve(128);  // pre-existing capacity must not change the output
  for (int round = 0; round < 2; ++round) {  // and neither does reuse
    costs.edges(reused);
    EXPECT_TRUE(std::ranges::equal(fresh, reused, same));
  }
}

TEST(Greedy, OddCountRejected) {
  CostMatrix costs{3};
  // Typed error (not the SIC_CHECK logic_error): the CLI maps it to its
  // own exit code, and the message names the offending count.
  try {
    (void)greedy_min_weight_perfect_matching(costs);
    FAIL() << "odd vertex count must throw MatchingError";
  } catch (const MatchingError& e) {
    EXPECT_NE(std::string{e.what()}.find("3"), std::string::npos);
  }
}

TEST(Greedy, NanOrNegativeInfiniteCostRejectedNamingThePair) {
  // A NaN breaks the heap's strict weak order and a −inf pair swallows
  // the total, so both throw as the blossom entries do; +inf (a pair that
  // never completes) stays allowed and sorts last.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto error = [](const CostMatrix& costs) {
    try {
      (void)greedy_min_weight_perfect_matching(costs);
    } catch (const MatchingError& e) {
      return std::string{e.what()};
    }
    return std::string{"no MatchingError"};
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -kInf}) {
    CostMatrix costs{4, 1.0};
    costs.set(0, 2, bad);
    EXPECT_NE(error(costs).find("(0, 2)"), std::string::npos) << bad;
  }
  EXPECT_NE(error(CostMatrix{4, std::numeric_limits<double>::quiet_NaN()})
                .find("(0, 1)"),
            std::string::npos);
  CostMatrix never{4, 1.0};
  never.set(0, 1, kInf);
  const auto m = greedy_min_weight_perfect_matching(never);
  EXPECT_EQ(m.pairs, (std::vector<std::pair<int, int>>{{0, 2}, {1, 3}}));
  EXPECT_DOUBLE_EQ(m.total_cost, 2.0);
}

}  // namespace
}  // namespace sic::matching
