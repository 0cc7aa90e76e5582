#ifndef SICMAC_CORE_MATCHING_TIER_HPP
#define SICMAC_CORE_MATCHING_TIER_HPP

/// \file matching_tier.hpp
/// Resolution of a SchedulerOptions::Pairing policy to the concrete matcher
/// that runs for a given backlog size, shared by every caller of the
/// Fig. 12 reduction (the pair-cost engine and the backlog drain planner)
/// so the two cannot drift apart on what "auto" means.
///
/// The policy exists because exact blossom is O(n³) in the worst case:
/// affordable (and the paper's construction) at the tens-of-clients
/// backlogs of Fig. 12, costlier at the hundreds-of-clients per-AP
/// backlogs of dense deployments. How much costlier is measured by
/// bench/perf_matching: at n = 256 on random costs the jump-started
/// blossom (matching/blossom.hpp) runs ~108 matchings/s, only ~1.7× fewer
/// than the approximate tier. kAuto crosses from exact to the approximate
/// tier at a configurable client count.

#include <span>
#include <vector>

#include "core/scheduler.hpp"
#include "matching/graph.hpp"

namespace sic::core {

/// The concrete matcher a Pairing policy resolves to for one backlog.
enum class MatchingTier {
  kBlossom,  ///< exact minimum-weight perfect matching
  kGreedy,   ///< cheapest-pair-first heuristic
  kApprox,   ///< sparsified greedy + 2-opt postpass
};

[[nodiscard]] constexpr const char* to_string(MatchingTier t) {
  switch (t) {
    case MatchingTier::kBlossom: return "blossom";
    case MatchingTier::kGreedy: return "greedy";
    case MatchingTier::kApprox: return "approx";
  }
  return "?";
}

/// Resolves \p pairing for a backlog of \p num_clients clients (the count
/// before any dummy vertex is added). kAuto uses the approximate tier at
/// num_clients >= auto_tier_threshold and exact blossom below it; the
/// fixed policies resolve to themselves regardless of size.
[[nodiscard]] MatchingTier resolve_matching_tier(
    SchedulerOptions::Pairing pairing, int num_clients,
    int auto_tier_threshold);

/// Runs the resolved matcher over \p costs. \p vertex_serial_cost feeds
/// the approximate tier's sparsification (per-vertex solo airtime, 0.0 for
/// a dummy vertex — its edges are always dropped and closed by the
/// fallback) and \p sparsify_margin is the admission margin; both are
/// ignored by the exact tiers. \p edge_scratch is reused across calls.
[[nodiscard]] matching::Matching run_matching_tier(
    const matching::CostMatrix& costs, MatchingTier tier,
    std::span<const double> vertex_serial_cost, Decibels sparsify_margin,
    std::vector<matching::WeightedEdge>& edge_scratch);

}  // namespace sic::core

#endif  // SICMAC_CORE_MATCHING_TIER_HPP
