#ifndef SICMAC_MATCHING_GREEDY_HPP
#define SICMAC_MATCHING_GREEDY_HPP

/// \file greedy.hpp
/// Greedy minimum-weight perfect matching: repeatedly take the globally
/// cheapest pair among unmatched vertices. Used as the ablation baseline
/// against the exact blossom matcher (DESIGN.md perf benches, the Fig. 13
/// greedy-pairing series): a 2-approximation-ish heuristic that a naive
/// AP implementation might ship.

#include <vector>

#include "matching/graph.hpp"

namespace sic::matching {

/// Requires even n and costs that are finite or +inf; throws MatchingError
/// otherwise, naming the count or the pair. O(n² log n).
[[nodiscard]] Matching greedy_min_weight_perfect_matching(const CostMatrix& costs);

/// Scratch-reusing variant: \p edge_scratch holds the materialized edge
/// list across calls so per-round re-matching (the deployment engine's
/// epoch loop) does not re-allocate it. Results are identical to the
/// allocating overload.
[[nodiscard]] Matching greedy_min_weight_perfect_matching(
    const CostMatrix& costs, std::vector<WeightedEdge>& edge_scratch);

}  // namespace sic::matching

#endif  // SICMAC_MATCHING_GREEDY_HPP
