#ifndef SICMAC_TOPOLOGY_SPATIAL_INDEX_HPP
#define SICMAC_TOPOLOGY_SPATIAL_INDEX_HPP

/// \file spatial_index.hpp
/// Uniform-grid spatial index over a fixed point set (AP sites). The
/// deployment engine's association pass is the one remaining
/// O(clients × APs) scan at city scale; this index turns "which APs could
/// possibly win this client?" into a ring-by-ring walk around the
/// client's grid cell, so association visits O(candidates) APs instead of
/// all of them (see mac/association.hpp for the exact branch-and-bound
/// cutoff built on top).
///
/// Determinism is by construction, not by convention: the index stores
/// ids in flat CSR arrays (no unordered containers anywhere — sic_lint R3
/// stays hot on this file on purpose), cells are iterated in canonical
/// row-major order, and every ring comes back in ascending id order. Two
/// queries with the same inputs return byte-identical answers on every
/// thread of every run.

#include <span>
#include <vector>

#include "topology/geometry.hpp"

namespace sic::topology {

/// Uniform grid over a fixed set of points. Points are addressed by their
/// index in the construction span ("id"); the point set cannot change
/// after construction (AP sites are fixed for an engine's lifetime —
/// liveness is the caller's per-query concern).
class SpatialGridIndex {
 public:
  /// Builds the index over \p points. \p cell_size_m <= 0 picks a cell
  /// size automatically (~1 point per cell for uniform layouts). Empty
  /// point sets are allowed; every query then returns nothing.
  explicit SpatialGridIndex(std::span<const Point> points,
                            double cell_size_m = 0.0);

  [[nodiscard]] int size() const { return static_cast<int>(points_.size()); }
  [[nodiscard]] double cell_size_m() const { return cell_m_; }
  [[nodiscard]] const Point& point(int id) const {
    return points_[static_cast<std::size_t>(id)];
  }

  /// Number of the outermost ring that still contains grid cells when
  /// walking outward from \p query 's (clamped) home cell. Rings beyond
  /// this are empty; a full walk of rings 0..max_ring visits every point.
  [[nodiscard]] int max_ring(Point query) const;

  /// Conservative lower bound on the distance from any query point to any
  /// point stored in ring \p ring of that query's walk: a point in ring r
  /// is at least (r - 1) cells away. Ring 0 and 1 bound to 0.
  [[nodiscard]] double ring_lower_bound_m(int ring) const {
    return ring <= 1 ? 0.0 : static_cast<double>(ring - 1) * cell_m_;
  }

  /// Appends the ids stored in the cells of ring \p ring around \p query
  /// (cells at Chebyshev cell-distance == ring from the query's clamped
  /// home cell), in ascending id order. Appends nothing when the ring
  /// holds no points.
  void collect_ring(Point query, int ring, std::vector<int>& out) const;

 private:
  [[nodiscard]] int cell_x(double x) const;
  [[nodiscard]] int cell_y(double y) const;

  std::vector<Point> points_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double cell_m_ = 1.0;
  int nx_ = 1;  ///< grid columns
  int ny_ = 1;  ///< grid rows
  /// CSR layout: ids of cell (cx, cy) are ids_[cell_start_[cy*nx_+cx] ..
  /// cell_start_[cy*nx_+cx+1]), ascending within each cell.
  std::vector<int> cell_start_;
  std::vector<int> ids_;
};

}  // namespace sic::topology

#endif  // SICMAC_TOPOLOGY_SPATIAL_INDEX_HPP
