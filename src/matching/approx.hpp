#ifndef SICMAC_MATCHING_APPROX_HPP
#define SICMAC_MATCHING_APPROX_HPP

/// \file approx.hpp
/// Approximate minimum-weight perfect matching: a greedy seed followed by a
/// deterministic 2-opt local-swap postpass, optionally preceded by a
/// sparsification pass that drops pair edges whose SIC gain over serial
/// transmission is below the admission margin.
///
/// Greedy alone is a ½-approximation on the *maximization* form; on our
/// minimization totals the empirical gap is what the perf bench and the
/// property tests pin (greedy ≤ 2× blossom, greedy+postpass ≤ 1.5× blossom
/// on seeded random matrices). The postpass repeatedly rewires pairs of
/// matched edges {(a,b),(c,d)} → {(a,c),(b,d)} or {(a,d),(b,c)} whenever
/// the rewiring strictly lowers total cost, in a fixed deterministic scan
/// order, so the result is a local optimum of the 2-swap neighbourhood.
/// Total cost strictly decreases on every applied swap, so the pass
/// terminates; a pass cap bounds the worst case.
///
/// This is the scaling tier behind SchedulerOptions::Pairing::kApprox and
/// the large-n half of kAuto: blossom is O(n³) in the worst case, and the
/// per-AP backlogs of dense deployments are large (Zhang & Haenggi
/// regimes, PAPERS.md); greedy + postpass is O(n² log n) and empirically
/// within a few percent of exact total airtime at the sizes where both
/// can run. Measured against the jump-started blossom the speed gap is
/// small: ~1.7× at n = 256 on random costs (bench/perf_matching).

#include <cstdint>
#include <span>
#include <vector>

#include "matching/graph.hpp"
#include "util/units.hpp"

namespace sic::matching {

/// Work and quality counters for one approximate-matching call. Plain
/// integers accumulated on the hot path and published in one batch (obs
/// batch idiom); also returned to callers that want them without metrics.
struct ApproxMatchStats {
  std::uint64_t kept_edges = 0;     ///< edges surviving sparsification
  std::uint64_t dropped_edges = 0;  ///< edges cut by the admission margin
  std::uint64_t fallback_pairs = 0; ///< pairs closed by the dummy-edge fallback
  std::uint64_t swap_passes = 0;    ///< full 2-opt sweeps executed
  std::uint64_t swaps_applied = 0;  ///< individual improving rewirings
};

/// Dense tier: greedy seed over the complete edge list, then the 2-opt
/// postpass. Requires even n (throws MatchingError otherwise).
/// Deterministic for a given cost matrix. O(n² log n).
[[nodiscard]] Matching approx_min_weight_perfect_matching(
    const CostMatrix& costs, ApproxMatchStats* stats = nullptr);

/// Sparsified tier: an edge {u, v} enters the matcher only when pairing
/// beats serial transmission by at least \p sparsify_margin, i.e.
///
///   cost(u, v) < (serial[u] + serial[v]) · 10^(−margin_dB / 10)
///
/// where \p vertex_serial_cost[k] is the serial (solo) airtime of vertex k.
/// A dummy vertex with serial cost 0 therefore never keeps an edge and is
/// paired by the fallback. Vertices left unmatched by the greedy seed over
/// the thin graph are paired in ascending index order at their matrix cost
/// (any pair costs at most the serial sum, so a perfect matching always
/// exists). \p edge_scratch is reused across calls (mirroring
/// CostMatrix::edges(out)). Requires even n (throws MatchingError).
[[nodiscard]] Matching approx_min_weight_perfect_matching(
    const CostMatrix& costs, std::span<const double> vertex_serial_cost,
    Decibels sparsify_margin, std::vector<WeightedEdge>& edge_scratch,
    ApproxMatchStats* stats = nullptr);

}  // namespace sic::matching

#endif  // SICMAC_MATCHING_APPROX_HPP
