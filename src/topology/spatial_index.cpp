#include "topology/spatial_index.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sic::topology {

SpatialGridIndex::SpatialGridIndex(std::span<const Point> points,
                                   double cell_size_m)
    : points_(points.begin(), points.end()) {
  const int n = static_cast<int>(points_.size());
  double max_x = 0.0;
  double max_y = 0.0;
  if (n > 0) {
    min_x_ = max_x = points_[0].x;
    min_y_ = max_y = points_[0].y;
    for (const Point& p : points_) {
      min_x_ = std::min(min_x_, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
  }
  const double extent = std::max(max_x - min_x_, max_y - min_y_);
  if (cell_size_m > 0.0) {
    cell_m_ = cell_size_m;
  } else {
    // ~1 point per cell for uniform layouts; degenerate extents (single
    // point, collinear duplicates) fall back to one cell.
    const double side = std::ceil(std::sqrt(static_cast<double>(std::max(n, 1))));
    cell_m_ = extent > 0.0 ? extent / side : 1.0;
  }
  SIC_CHECK(cell_m_ > 0.0);
  nx_ = std::max(1, static_cast<int>(std::floor((max_x - min_x_) / cell_m_)) + 1);
  ny_ = std::max(1, static_cast<int>(std::floor((max_y - min_y_) / cell_m_)) + 1);

  const std::size_t cells = static_cast<std::size_t>(nx_) *
                            static_cast<std::size_t>(ny_);
  std::vector<int> count(cells, 0);
  for (const Point& p : points_) {
    ++count[static_cast<std::size_t>(cell_y(p.y)) *
                static_cast<std::size_t>(nx_) +
            static_cast<std::size_t>(cell_x(p.x))];
  }
  cell_start_.assign(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + count[c];
  }
  ids_.assign(static_cast<std::size_t>(n), 0);
  std::vector<int> cursor(cell_start_.begin(), cell_start_.end() - 1);
  // Points are appended in id order, so each cell's slice is ascending.
  for (int id = 0; id < n; ++id) {
    const Point& p = points_[static_cast<std::size_t>(id)];
    const std::size_t c = static_cast<std::size_t>(cell_y(p.y)) *
                              static_cast<std::size_t>(nx_) +
                          static_cast<std::size_t>(cell_x(p.x));
    ids_[static_cast<std::size_t>(cursor[c]++)] = id;
  }
}

int SpatialGridIndex::cell_x(double x) const {
  const int c = static_cast<int>(std::floor((x - min_x_) / cell_m_));
  return std::clamp(c, 0, nx_ - 1);
}

int SpatialGridIndex::cell_y(double y) const {
  const int c = static_cast<int>(std::floor((y - min_y_) / cell_m_));
  return std::clamp(c, 0, ny_ - 1);
}

int SpatialGridIndex::max_ring(Point query) const {
  if (points_.empty()) return -1;
  const int cx = cell_x(query.x);
  const int cy = cell_y(query.y);
  return std::max(std::max(cx, nx_ - 1 - cx), std::max(cy, ny_ - 1 - cy));
}

void SpatialGridIndex::collect_ring(Point query, int ring,
                                    std::vector<int>& out) const {
  if (points_.empty() || ring < 0) return;
  const int cx = cell_x(query.x);
  const int cy = cell_y(query.y);
  const std::size_t before = out.size();
  const auto take_cell = [&](int x, int y) {
    if (x < 0 || x >= nx_ || y < 0 || y >= ny_) return;
    const std::size_t c = static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(nx_) +
                          static_cast<std::size_t>(x);
    for (int i = cell_start_[c]; i < cell_start_[c + 1]; ++i) {
      out.push_back(ids_[static_cast<std::size_t>(i)]);
    }
  };
  if (ring == 0) {
    take_cell(cx, cy);
    return;  // a single cell's slice is already ascending
  }
  // Perimeter of the (2·ring+1)² square: top and bottom rows, then the
  // two side columns — canonical order, then one sort for the id contract.
  for (int x = cx - ring; x <= cx + ring; ++x) take_cell(x, cy - ring);
  for (int x = cx - ring; x <= cx + ring; ++x) take_cell(x, cy + ring);
  for (int y = cy - ring + 1; y <= cy + ring - 1; ++y) {
    take_cell(cx - ring, y);
    take_cell(cx + ring, y);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end());
}

}  // namespace sic::topology
