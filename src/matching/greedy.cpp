#include "matching/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "matching/error.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/mathx.hpp"

namespace sic::matching {

Matching greedy_min_weight_perfect_matching(const CostMatrix& costs) {
  std::vector<WeightedEdge> edges;
  return greedy_min_weight_perfect_matching(costs, edges);
}

Matching greedy_min_weight_perfect_matching(
    const CostMatrix& costs, std::vector<WeightedEdge>& edge_scratch) {
  const int n = costs.size();
  if (n % 2 != 0) {
    throw MatchingError(
        "greedy perfect matching requires an even vertex count, got n = " +
        std::to_string(n));
  }
  obs::MetricsRegistry* reg = obs::metrics();
  obs::ScopedTimer timer{
      reg != nullptr ? &reg->histogram("matching.greedy.wall_s") : nullptr,
      reg != nullptr ? &reg->counter("matching.greedy.calls") : nullptr};
  costs.edges(edge_scratch);
  auto& edges = edge_scratch;
  // The heap order below must be a strict weak order, which a NaN breaks,
  // and a −inf pair would swallow the total. +inf is a pair that never
  // completes: it sorts last.
  for (const WeightedEdge& e : edges) {
    if (std::isnan(e.weight) ||
        e.weight == -std::numeric_limits<double>::infinity()) {
      throw MatchingError("greedy perfect matching: cost of pair " +
                          pair_name(e.u, e.v) + " is " +
                          std::to_string(e.weight) +
                          " (costs must be finite or +inf)");
    }
  }
  // Heap selection instead of a full sort: the greedy scan stops once every
  // vertex is matched, which on a complete graph happens long before the
  // expensive tail of the edge list would ever be looked at — so most of an
  // O(E log E) sort is wasted. Heapify is O(E) and each accepted or skipped
  // edge costs one O(log E) pop. Ties (exactly equal weights) break in
  // (u, v) row-major order, the order edges() generates them in.
  const auto later = [](const WeightedEdge& a, const WeightedEdge& b) {
    if (!bitwise_equal(a.weight, b.weight)) return a.weight > b.weight;
    if (a.u != b.u) return a.u > b.u;
    return a.v > b.v;
  };
  std::make_heap(edges.begin(), edges.end(), later);
  auto heap_end = edges.end();
  std::vector<bool> used(static_cast<std::size_t>(n), false);
  Matching out;
  out.pairs.reserve(static_cast<std::size_t>(n) / 2);
  std::uint64_t edge_visits = 0;
  int matched = 0;
  while (matched < n && heap_end != edges.begin()) {
    std::pop_heap(edges.begin(), heap_end, later);
    const WeightedEdge& e = *--heap_end;
    ++edge_visits;
    if (used[static_cast<std::size_t>(e.u)] ||
        used[static_cast<std::size_t>(e.v)]) {
      continue;
    }
    used[static_cast<std::size_t>(e.u)] = true;
    used[static_cast<std::size_t>(e.v)] = true;
    out.pairs.emplace_back(e.u, e.v);
    out.total_cost += e.weight;
    matched += 2;
  }
  if (reg != nullptr) {
    reg->counter("matching.greedy.edge_visits").inc(edge_visits);
    reg->counter("matching.greedy.vertices").inc(
        static_cast<std::uint64_t>(n));
  }
  return out;
}

}  // namespace sic::matching
