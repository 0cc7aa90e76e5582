/// Structured stress tests for the weighted blossom matcher: graph shapes
/// (paths, cycles, stars, bipartite, metric-plane instances) that exercise
/// specific blossom behaviors, all cross-checked against the exponential
/// oracle; and, above the oracle's reach, scheduler-shaped complete graphs
/// on which the jump-started perfect matcher is checked against the
/// uniform-start maximum-weight path, against the serial-aware entry, and
/// against itself under relabelling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "matching/blossom.hpp"
#include "matching/oracle.hpp"
#include "util/rng.hpp"

namespace sic::matching {
namespace {

double matching_weight(const std::vector<int>& mate,
                       std::span<const WeightedEdge> edges) {
  double total = 0.0;
  for (int v = 0; v < static_cast<int>(mate.size()); ++v) {
    if (mate[v] <= v) continue;
    double best = -1e18;
    for (const auto& e : edges) {
      if ((e.u == v && e.v == mate[v]) || (e.v == v && e.u == mate[v])) {
        best = std::max(best, e.weight);
      }
    }
    total += best;
  }
  return total;
}

void expect_matches_oracle(int n, const std::vector<WeightedEdge>& edges,
                           bool max_cardinality, const char* label) {
  const auto mate = max_weight_matching(n, edges, max_cardinality);
  ASSERT_TRUE(is_valid_mate_vector(mate)) << label;
  const auto oracle = max_weight_matching_oracle(n, edges, max_cardinality);
  EXPECT_NEAR(matching_weight(mate, edges), oracle.total_weight, 1e-6)
      << label;
}

TEST(BlossomStress, PathsAllLengths) {
  Rng rng{1};
  for (int n = 2; n <= 14; ++n) {
    std::vector<WeightedEdge> edges;
    for (int i = 0; i + 1 < n; ++i) {
      edges.push_back(WeightedEdge{i, i + 1, rng.uniform(1.0, 10.0)});
    }
    expect_matches_oracle(n, edges, false, "path/maxweight");
    expect_matches_oracle(n, edges, true, "path/maxcard");
  }
}

TEST(BlossomStress, OddCyclesForceBlossoms) {
  Rng rng{2};
  for (int n = 3; n <= 13; n += 2) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<WeightedEdge> edges;
      for (int i = 0; i < n; ++i) {
        edges.push_back(WeightedEdge{i, (i + 1) % n, rng.uniform(1.0, 10.0)});
      }
      expect_matches_oracle(n, edges, false, "odd cycle");
      expect_matches_oracle(n, edges, true, "odd cycle/maxcard");
    }
  }
}

TEST(BlossomStress, StarsHaveSingleEdgeMatchings) {
  Rng rng{3};
  for (int leaves = 1; leaves <= 12; ++leaves) {
    std::vector<WeightedEdge> edges;
    double best = 0.0;
    for (int i = 1; i <= leaves; ++i) {
      const double w = rng.uniform(1.0, 10.0);
      best = std::max(best, w);
      edges.push_back(WeightedEdge{0, i, w});
    }
    const auto mate = max_weight_matching(leaves + 1, edges, false);
    EXPECT_NEAR(matching_weight(mate, edges), best, 1e-9);
  }
}

TEST(BlossomStress, BipartiteMatchesOracle) {
  Rng rng{4};
  for (int trial = 0; trial < 40; ++trial) {
    const int left = rng.uniform_int(1, 5);
    const int right = rng.uniform_int(1, 5);
    std::vector<WeightedEdge> edges;
    for (int i = 0; i < left; ++i) {
      for (int j = 0; j < right; ++j) {
        if (rng.chance(0.8)) {
          edges.push_back(
              WeightedEdge{i, left + j, rng.uniform(0.0, 20.0)});
        }
      }
    }
    if (edges.empty()) continue;
    expect_matches_oracle(left + right, edges, false, "bipartite");
    expect_matches_oracle(left + right, edges, true, "bipartite/maxcard");
  }
}

TEST(BlossomStress, MetricPlaneInstances) {
  // Euclidean min-weight perfect matching of random points — the classic
  // application; verify against the oracle at n = 12.
  Rng rng{5};
  for (int trial = 0; trial < 20; ++trial) {
    constexpr int n = 12;
    std::vector<std::pair<double, double>> pts;
    for (int i = 0; i < n; ++i) {
      pts.emplace_back(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0));
    }
    CostMatrix costs{n};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        costs.set(i, j, std::hypot(pts[i].first - pts[j].first,
                                   pts[i].second - pts[j].second));
      }
    }
    const auto blossom = min_weight_perfect_matching(costs);
    const auto oracle = min_weight_perfect_matching_oracle(costs);
    EXPECT_NEAR(blossom.total_cost, oracle.total_cost, 1e-5)
        << "trial " << trial;
  }
}

TEST(BlossomStress, NearTiesEverywhere) {
  // All weights within epsilon of each other: dual updates are tiny and
  // tie-breaking dominates — a classic numerical trap, handled by the
  // integer quantization.
  Rng rng{6};
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 * rng.uniform_int(2, 6);
    CostMatrix costs{n};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        costs.set(i, j, 5.0 + rng.uniform(-1e-7, 1e-7));
      }
    }
    const auto blossom = min_weight_perfect_matching(costs);
    const auto oracle = min_weight_perfect_matching_oracle(costs);
    EXPECT_NEAR(blossom.total_cost, oracle.total_cost, 1e-5);
  }
}

TEST(BlossomStress, HugeWeightMagnitudes) {
  // Quantization must survive weights spanning many orders of magnitude.
  CostMatrix costs{4};
  costs.set(0, 1, 1e-6);
  costs.set(2, 3, 1e6);
  costs.set(0, 2, 2e5);
  costs.set(1, 3, 2e5);
  costs.set(0, 3, 9e5);
  costs.set(1, 2, 9e5);
  const auto blossom = min_weight_perfect_matching(costs);
  const auto oracle = min_weight_perfect_matching_oracle(costs);
  EXPECT_NEAR(blossom.total_cost, oracle.total_cost,
              oracle.total_cost * 1e-6);
}

TEST(BlossomStress, RepeatedSolvesAreIndependent) {
  // The matcher must be stateless across calls (fresh instance per solve).
  Rng rng{7};
  CostMatrix costs{10};
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) costs.set(i, j, rng.uniform(1.0, 9.0));
  }
  const auto first = min_weight_perfect_matching(costs);
  for (int k = 0; k < 5; ++k) {
    const auto again = min_weight_perfect_matching(costs);
    EXPECT_DOUBLE_EQ(again.total_cost, first.total_cost);
    EXPECT_EQ(again.pairs, first.pairs);
  }
}

/// A seeded complete graph shaped like the scheduler's (Fig. 12): each
/// client has a solo airtime L / rate over a few discrete rates, a pair
/// costs the serial sum unless SIC beats it, and an odd count gets the
/// dummy vertex, whose edge to a client costs that client's solo airtime.
/// Most pairs cost the serial sum, so serial partners can swap at equal
/// total and optima tie. A client below the base rate has solo airtime
/// +inf, which makes its whole row +inf. Also returns each vertex's serial
/// cost (the solo airtime, 0 for the dummy).
std::pair<CostMatrix, std::vector<double>> scheduler_shaped(
    int clients, double unservable_prob, Rng& rng) {
  constexpr double kRatesMbps[] = {6, 9, 12, 18, 24, 36, 48, 54};
  std::vector<double> solo(static_cast<std::size_t>(clients));
  for (double& s : solo) {
    s = rng.chance(unservable_prob)
            ? std::numeric_limits<double>::infinity()
            : 12000.0 / kRatesMbps[rng.uniform_int(0, 7)];
  }
  const int n = clients + clients % 2;
  CostMatrix costs{n};
  for (int i = 0; i < clients; ++i) {
    for (int j = i + 1; j < clients; ++j) {
      const double sum = solo[i] + solo[j];
      const double lo = std::min(solo[i], solo[j]);
      const double hi = std::max(solo[i], solo[j]);
      costs.set(i, j, std::isfinite(sum) && rng.chance(0.2)
                          ? hi + rng.uniform(0.3, 1.0) * lo
                          : sum);
    }
    if (n > clients) costs.set(i, clients, solo[i]);
  }
  solo.resize(static_cast<std::size_t>(n), 0.0);
  return {std::move(costs), std::move(solo)};
}

/// A perfect matching's never-completing (+inf) pairs and finite total.
struct Split {
  int infinite = 0;
  double finite = 0.0;
};

Split split_total(const CostMatrix& costs,
                  std::span<const std::pair<int, int>> pairs) {
  Split out;
  for (const auto& [a, b] : pairs) {
    const double c = costs.at(a, b);
    if (std::isfinite(c)) {
      out.finite += c;
    } else {
      ++out.infinite;
    }
  }
  return out;
}

/// The largest finite cost and the finite costs' range (0 when there are
/// fewer than two distinct finite costs).
std::pair<double, double> finite_max_and_range(const CostMatrix& costs) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto& e : costs.edges()) {
    if (std::isfinite(e.weight)) {
      lo = std::min(lo, e.weight);
      hi = std::max(hi, e.weight);
    }
  }
  return {hi, hi > lo ? hi - lo : 0.0};
}

/// n · range · 2⁻²⁶: two exact optima of the quantised instance differ in
/// true finite total by at most the rounding of their n/2 edges each.
double quantisation_bound(const CostMatrix& costs) {
  return costs.size() * finite_max_and_range(costs).second *
         std::ldexp(1.0, -26);
}

std::vector<std::pair<int, int>> pairs_of(const std::vector<int>& mate) {
  std::vector<std::pair<int, int>> out;
  for (int v = 0; v < static_cast<int>(mate.size()); ++v) {
    if (v < mate[v]) out.emplace_back(v, mate[v]);
  }
  return out;
}

/// Client counts from 1 to ~300, most small, every parity.
std::vector<int> stress_sizes() {
  std::vector<int> sizes;
  for (int c = 1; c <= 40; ++c) sizes.push_back(c);
  for (const int c : {63, 64, 97, 128, 161, 200, 255, 299}) sizes.push_back(c);
  return sizes;
}

TEST(BlossomStress, JumpStartMatchesUniformStartOnSchedulerShapedGraphs) {
  // min_weight_perfect_matching starts from a greedy matching and
  // per-vertex duals; max_weight_matching starts from uniform duals and an
  // empty matching. Both must reach the same optimum. The uniform side
  // gets w' = max − cost, and −(range + 1) for a +inf pair: every +inf
  // pair involves an unservable client, so any penalty > 0 already
  // minimises their number first (pairing two unservables frees two
  // servables to pair with each other).
  Rng rng{1402};
  for (const int clients : stress_sizes()) {
    for (int trial = 0; trial < (clients <= 40 ? 6 : 1); ++trial) {
      const CostMatrix costs =
          scheduler_shaped(clients, trial % 2 == 0 ? 0.0 : 0.08, rng).first;
      const int n = costs.size();
      const auto jump = min_weight_perfect_matching(costs);
      ASSERT_EQ(jump.pairs.size(), static_cast<std::size_t>(n / 2));

      const auto [hi, range] = finite_max_and_range(costs);
      std::vector<WeightedEdge> edges = costs.edges();
      for (auto& e : edges) {
        e.weight = std::isfinite(e.weight) ? hi - e.weight : -(range + 1.0);
      }
      const auto mate = max_weight_matching(n, edges, true);
      ASSERT_TRUE(is_valid_mate_vector(mate));
      const auto uniform = pairs_of(mate);
      ASSERT_EQ(uniform.size(), static_cast<std::size_t>(n / 2));

      std::vector<int> seen(static_cast<std::size_t>(n), 0);
      for (const auto& [a, b] : jump.pairs) ++seen[a], ++seen[b];
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](int s) { return s == 1; }));
      const Split a = split_total(costs, jump.pairs);
      const Split b = split_total(costs, uniform);
      EXPECT_EQ(a.infinite, b.infinite) << "clients=" << clients;
      EXPECT_NEAR(a.finite, b.finite, quantisation_bound(costs))
          << "clients=" << clients << " trial=" << trial;
    }
  }
}

TEST(BlossomStress, SerialAwareEntryMatchesDenseOnSchedulerShapedGraphs) {
  // Only the pairs that beat serial vs the complete graph: on finite rows
  // both entries return perfect matchings with the same optimum.
  Rng rng{1404};
  for (const int clients : stress_sizes()) {
    for (int trial = 0; trial < (clients <= 40 ? 6 : 1); ++trial) {
      const auto [costs, serial] = scheduler_shaped(clients, 0.0, rng);
      const auto dense = min_weight_perfect_matching(costs);
      const auto gain = min_weight_perfect_matching(costs, serial);
      for (const Matching* m : {&dense, &gain}) {
        std::vector<int> mate(static_cast<std::size_t>(costs.size()), -1);
        for (const auto& [a, b] : m->pairs) mate[a] = b, mate[b] = a;
        EXPECT_TRUE(is_valid_mate_vector(mate) && !std::ranges::count(mate, -1))
            << "clients=" << clients;
      }
      EXPECT_NEAR(gain.total_cost, dense.total_cost, quantisation_bound(costs))
          << "clients=" << clients << " trial=" << trial;
    }
  }
}

TEST(BlossomStress, RelabellingKeepsTheOptimum) {
  // Metamorphic: the jump start's greedy pass runs in index order, so a
  // relabelled instance starts from a different matching and duals. The
  // optimum it reaches must not depend on the labels.
  Rng rng{1403};
  for (const int clients : stress_sizes()) {
    for (int trial = 0; trial < (clients <= 40 ? 4 : 1); ++trial) {
      const CostMatrix costs =
          scheduler_shaped(clients, trial % 2 == 0 ? 0.0 : 0.08, rng).first;
      const int n = costs.size();
      std::vector<int> perm(static_cast<std::size_t>(n));
      std::iota(perm.begin(), perm.end(), 0);
      for (int i = n - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.uniform_int(0, i)]);
      }
      CostMatrix relabelled{n};
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          relabelled.set(perm[i], perm[j], costs.at(i, j));
        }
      }
      const Split a =
          split_total(costs, min_weight_perfect_matching(costs).pairs);
      const Split b = split_total(
          relabelled, min_weight_perfect_matching(relabelled).pairs);
      EXPECT_EQ(a.infinite, b.infinite) << "clients=" << clients;
      EXPECT_NEAR(a.finite, b.finite, quantisation_bound(costs))
          << "clients=" << clients << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace sic::matching
