#ifndef SICMAC_MATCHING_BLOSSOM_HPP
#define SICMAC_MATCHING_BLOSSOM_HPP

/// \file blossom.hpp
/// Edmonds' blossom algorithm for weighted matching in general graphs —
/// the engine behind the paper's SIC-aware scheduler (Section 6, Fig. 12:
/// "we approach the problem by reducing SIC-aware scheduling to Edmond's
/// minimum weight perfect matching algorithm").
///
/// Implementation: Galil's primal-dual formulation with blossom shrinking
/// and lazy least-slack edge tracking (the van Rantwijk arrangement),
/// O(n³) for dense graphs. Edge weights are quantized onto an exact
/// integer grid internally (relative precision ≈ 2⁻²⁶) so the dual updates
/// never accumulate floating-point drift; results are exact optima of the
/// quantized instance. Adjacency is one flat CSR array (every neighbour
/// list in one array, a start offset per vertex) whose entries carry the
/// far vertex, the endpoint id and the quantized weight, and blossom
/// bookkeeping reuses member scratch, so a solve allocates only up front.
///
/// Stage scan. Nearly all of a large solve is the scan's least-slack
/// offers: on `dense_churn`'s serial-aware calls, 93 % of the arc visits
/// fall in a stage's first scan pass and 1.9 % land on tight arcs.
/// Each least-slack slot (an unlabeled vertex, or a top-level S-blossom)
/// caches its edge's slack under the current duals, and the scan and the
/// dual step read that number instead of re-deriving it from the edge and
/// two duals. The cache is exact in every label state. A dual step lowers
/// an unlabeled vertex's slot by delta (its S end falls, its own end
/// holds) and a top-level S-blossom's by 2 delta (both ends are S). A
/// slot inside a T-blossom holds, because its ends move by -delta and
/// +delta, until expanding that T-blossom exposes it again. Every write
/// of a slot writes its slack, and with SIC_DCHECK on every read checks
/// it. A non-tight arc's offer goes to v's blossom's slot, w's slot or a
/// sink slot that never takes one, picked by masks, and sticks through a
/// conditional move only when strictly smaller: no branch depends on the
/// labels or slacks, and the first least arc in scan order keeps a slot.
/// The step order is kept, not just the optimum, because the scheduler's
/// gain graphs tie often: when the weaker client is the bottleneck, a
/// pair gains exactly the stronger client's solo airtime, whoever the
/// partner is. Under one random relabelling, 511 of 1,461 `dense_churn`
/// calls return a different set of gain pairs at equal total, as do 431
/// of 513 `pcmr_chaos` and 116 of 5,370 `nearest_serve` calls.
///
/// min_weight_perfect_matching(costs) jump-starts the solve the way Blossom
/// V does (Kolmogorov, Math. Prog. Comp. 1(1), 2009): each vertex's dual
/// starts at its largest incident weight, then a greedy pass in index order
/// makes one edge per vertex tight and matches free vertices across tight
/// edges. Most stages then have nothing left to rescan. The optimum is the
/// same, but ties between equal-total matchings — common in the scheduler,
/// where serial partners can swap at equal cost — may resolve to a
/// different optimal pairing than the uniform start would pick.
/// max_weight_matching and the serial-aware entry keep the uniform start:
/// their graphs may have no perfect matching, and then optimality needs
/// equal duals on the vertices left single.
///
/// Correctness is cross-checked against an exponential oracle in
/// tests/matching_blossom_test.cpp, and the two starts and the two
/// perfect-matching entries against each other on scheduler-shaped graphs
/// up to n ≈ 300 in tests/matching_stress_test.cpp. The step order is
/// pinned by hashes of the returned pairings: on seeded graphs up to 40
/// vertices (Blossom.TieBreakingPinnedOnSeededGraphs), and with the work
/// counters on scheduler-shaped cells up to 340 vertices
/// (GainBlossom.TieBreakingPinnedOnSchedulerShapedCells).

#include <span>
#include <vector>

#include "matching/graph.hpp"

namespace sic::matching {

/// Maximum-weight matching over an undirected edge list.
///
/// \param n vertex count; vertices are 0..n-1.
/// \param edges undirected weighted edges (no self-loops; parallel edges
///        allowed, the heavier one wins). A non-finite weight throws
///        MatchingError naming the edge.
/// \param max_cardinality when true, only maximum-cardinality matchings are
///        considered and weight is maximized among them.
/// \return mate vector: mate[v] is v's partner or -1 when single.
[[nodiscard]] std::vector<int> max_weight_matching(
    int n, std::span<const WeightedEdge> edges, bool max_cardinality = false);

/// Minimum-weight perfect matching on the complete graph described by
/// \p costs, and the reference for the serial-aware entry below. Requires
/// an even vertex count. Implemented via the standard reduction
/// w' = max_cost − cost with max-cardinality matching, taking
/// max_cost and the quantization grid from the finite costs. A +inf cost
/// (a client below the base rate) is a pair that never completes: the
/// result first has as few of those as possible, then the least finite
/// total. A NaN or −inf cost throws MatchingError naming the pair.
[[nodiscard]] Matching min_weight_perfect_matching(const CostMatrix& costs);

/// The same for a matrix where no pair costs more than its vertices'
/// \p serial costs summed (Fig. 12: solo airtimes, 0 for the dummy).
/// Solves the pairs with gain g = serial[u] + serial[v] − cost > 0 as one
/// maximum-weight matching, then pairs the singles in index order: no two
/// share a positive-gain edge, so each such pair has g = 0 and the total
/// is optimal. Unservable vertices (serial +inf) get no edge and pair
/// with each other first, so the fewest pairs never complete. Throws
/// MatchingError for an odd count, a wrong-length \p serial, a NaN or
/// negative serial cost (naming the vertex), or a pair costing NaN, −inf
/// or more than its serial sum (naming the pair).
[[nodiscard]] Matching min_weight_perfect_matching(
    const CostMatrix& costs, std::span<const double> serial);

}  // namespace sic::matching

#endif  // SICMAC_MATCHING_BLOSSOM_HPP
