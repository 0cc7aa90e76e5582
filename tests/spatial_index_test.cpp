#include "topology/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace sic::topology {
namespace {

std::vector<Point> random_points(std::uint64_t seed, int n, double extent) {
  Rng rng{seed};
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(Point{rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  }
  return pts;
}

/// The ring walk around \p q: the ids of ring r at index r.
std::vector<std::vector<int>> ring_walk(const SpatialGridIndex& index,
                                        Point q) {
  std::vector<std::vector<int>> rings;
  for (int ring = 0; ring <= index.max_ring(q); ++ring) {
    rings.emplace_back();
    index.collect_ring(q, ring, rings.back());
  }
  return rings;
}

/// The walk visits every id in [0, n) exactly once.
void expect_covers_once(const std::vector<std::vector<int>>& rings, int n) {
  std::vector<int> all;
  for (const auto& ring : rings) {
    all.insert(all.end(), ring.begin(), ring.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<int> want(static_cast<std::size_t>(n));
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(all, want);
}

TEST(SpatialGridIndex, RingWalkCoversEveryPointExactlyOnce) {
  const std::vector<Point> pts = random_points(42, 37, 80.0);
  const SpatialGridIndex index{pts};
  const Point q{31.0, 55.0};
  std::vector<int> all;
  for (int ring = 0; ring <= index.max_ring(q); ++ring) {
    index.collect_ring(q, ring, all);
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), pts.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<int>(i));
  }
}

TEST(SpatialGridIndex, RingLowerBoundNeverExceedsTrueDistance) {
  // The association cutoff's correctness rests on this: a point collected
  // in ring r is at least ring_lower_bound_m(r) away from the query.
  const std::vector<Point> pts = random_points(7, 50, 120.0);
  const SpatialGridIndex index{pts};
  Rng rng{99};
  for (int trial = 0; trial < 50; ++trial) {
    const Point q{rng.uniform(-10.0, 130.0), rng.uniform(-10.0, 130.0)};
    std::vector<int> ring_ids;
    for (int ring = 0; ring <= index.max_ring(q); ++ring) {
      ring_ids.clear();
      index.collect_ring(q, ring, ring_ids);
      for (const int id : ring_ids) {
        EXPECT_LE(index.ring_lower_bound_m(ring),
                  distance(q, index.point(id)))
            << "ring " << ring << " id " << id;
      }
    }
  }
}

TEST(SpatialGridIndex, DegenerateLayouts) {
  // Empty set: no ring to walk, and collect_ring appends nothing.
  const SpatialGridIndex empty{std::span<const Point>{}};
  EXPECT_EQ(empty.max_ring(Point{0.0, 0.0}), -1);
  std::vector<int> out{17};
  empty.collect_ring(Point{0.0, 0.0}, 0, out);
  EXPECT_EQ(out, (std::vector<int>{17}));

  // All-coincident points (zero extent): one cell holds every id.
  const std::vector<Point> same(5, Point{3.0, 4.0});
  const SpatialGridIndex coincident{same};
  EXPECT_EQ(coincident.max_ring(Point{0.0, 0.0}), 0);
  EXPECT_EQ(ring_walk(coincident, Point{0.0, 0.0}),
            (std::vector<std::vector<int>>{{0, 1, 2, 3, 4}}));

  // Collinear points exercise a 1×n grid of 80/3 m cells: the home cell
  // of x = 42 holds the points at 30, 40 and 50 m.
  std::vector<Point> line;
  for (int i = 0; i < 9; ++i) {
    line.push_back(Point{static_cast<double>(i) * 10.0, 5.0});
  }
  const SpatialGridIndex idx{line};
  const auto rings = ring_walk(idx, Point{42.0, 5.0});
  ASSERT_FALSE(rings.empty());
  EXPECT_EQ(rings[0], (std::vector<int>{3, 4, 5}));
  expect_covers_once(rings, 9);
}

TEST(SpatialGridIndex, ExplicitCellSizeHonored) {
  const std::vector<Point> pts = random_points(11, 30, 100.0);
  const SpatialGridIndex index{pts, 12.5};
  EXPECT_DOUBLE_EQ(index.cell_size_m(), 12.5);
  // A point in ring r sits at most r + 1 cells away on each axis.
  const Point q{50.0, 50.0};
  const auto rings = ring_walk(index, q);
  for (std::size_t ring = 0; ring < rings.size(); ++ring) {
    for (const int id : rings[ring]) {
      EXPECT_LE(distance(q, index.point(id)),
                static_cast<double>(ring + 1) * 12.5 * std::sqrt(2.0))
          << "ring " << ring << " id " << id;
    }
  }
  expect_covers_once(rings, 30);
}

}  // namespace
}  // namespace sic::topology
