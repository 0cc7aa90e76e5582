#ifndef SICMAC_MATCHING_GRAPH_HPP
#define SICMAC_MATCHING_GRAPH_HPP

/// \file graph.hpp
/// Graph types for the matching algorithms: a weighted edge list (the
/// blossom algorithm's natural input) and a dense symmetric cost matrix
/// (the scheduler's natural output of its pair-cost computation, Fig. 12).

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace sic::matching {

/// An undirected weighted edge.
struct WeightedEdge {
  int u = 0;
  int v = 0;
  double weight = 0.0;
};

/// Dense symmetric cost matrix over n vertices. Missing edges are modeled
/// by callers as very large costs; the scheduler's graphs are complete.
class CostMatrix {
 public:
  explicit CostMatrix(int n, double fill = 0.0)
      : n_(n), data_(static_cast<std::size_t>(n) * n, fill) {
    SIC_CHECK(n >= 0);
  }

  [[nodiscard]] int size() const { return n_; }

  /// Re-dimensions the matrix in place, reusing the existing allocation
  /// when it is large enough. Lets callers that rebuild cost matrices every
  /// round (the pair-cost engine's re-matching path) avoid a fresh
  /// allocation per rebuild.
  void reset(int n, double fill = 0.0) {
    SIC_CHECK(n >= 0);
    n_ = n;
    data_.assign(static_cast<std::size_t>(n) * n, fill);
  }

  [[nodiscard]] double at(int i, int j) const {
    SIC_DCHECK(in_range(i) && in_range(j));
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }

  /// Sets the symmetric cost of the pair {i, j}.
  void set(int i, int j, double cost) {
    SIC_DCHECK(in_range(i) && in_range(j));
    data_[static_cast<std::size_t>(i) * n_ + j] = cost;
    data_[static_cast<std::size_t>(j) * n_ + i] = cost;
  }

  /// All edges {i < j} as a weighted edge list.
  [[nodiscard]] std::vector<WeightedEdge> edges() const {
    std::vector<WeightedEdge> out;
    edges(out);
    return out;
  }

  /// Out-parameter variant of edges() that reuses \p out's allocation
  /// (mirroring reset), so greedy pairing re-run every round pays one
  /// allocation per scratch vector. Emits the identical row-major order.
  void edges(std::vector<WeightedEdge>& out) const {
    out.clear();
    out.reserve(static_cast<std::size_t>(n_) * (n_ - 1) / 2);
    for (int i = 0; i < n_; ++i) {
      for (int j = i + 1; j < n_; ++j) {
        out.push_back(WeightedEdge{i, j, at(i, j)});
      }
    }
  }

 private:
  [[nodiscard]] bool in_range(int i) const { return i >= 0 && i < n_; }

  int n_;
  std::vector<double> data_;
};

/// A perfect matching: vertex pairs plus the summed cost.
struct Matching {
  std::vector<std::pair<int, int>> pairs;
  double total_cost = 0.0;
};

/// Validates that \p mate (mate[v] = partner or -1) is an involution without
/// fixed points among matched vertices.
[[nodiscard]] bool is_valid_mate_vector(std::span<const int> mate);

}  // namespace sic::matching

#endif  // SICMAC_MATCHING_GRAPH_HPP
