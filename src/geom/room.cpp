#include "geom/room.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace uwb::geom {

namespace {

/// Side of an obstacle-index cell [m], before coarsening: about one
/// partition segment, so a leg's bounding box picks up few obstacles it
/// cannot cross.
constexpr double kObstacleCellM = 4.0;
/// Cells the index may hold: this many per obstacle, and at least
/// kMinIndexCells. The cell side doubles until the box fits, so obstacles
/// far apart cannot make the cell array huge.
constexpr double kIndexCellsPerObstacle = 4.0;
constexpr double kMinIndexCells = 1024.0;

struct Box {
  double x0, y0, x1, y1;
};

Box bounds_of(const Segment& s) {
  return {std::min(s.a.x, s.b.x), std::min(s.a.y, s.b.y),
          std::max(s.a.x, s.b.x), std::max(s.a.y, s.b.y)};
}

/// Cells of side `cell_m` needed along `extent` (at least one).
double cells_along(double extent, double cell_m) {
  return std::max(1.0, std::ceil(extent / cell_m));
}

/// Cell column (row) of coordinate `v` on an axis of `n` cells starting at
/// `origin`: non-decreasing in `v` and clamped to [0, n), NaN giving 0.
/// Monotone, so two overlapping intervals map to overlapping cell ranges.
std::int32_t cell_coord(double v, double origin, double cell_m,
                        std::int32_t n) {
  const double c = std::floor((v - origin) / cell_m);
  if (!(c > 0.0)) return 0;
  if (c >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<std::int32_t>(c);
}

/// Slot of cell (cx, cy) in the row-major cell array of `nx` columns.
std::size_t cell_slot(std::int32_t nx, std::int32_t cx, std::int32_t cy) {
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx) +
         static_cast<std::size_t>(cx);
}

}  // namespace

Room Room::rectangular(double width_m, double height_m, double reflection_loss_db) {
  UWB_EXPECTS(width_m > 0.0 && height_m > 0.0);
  UWB_EXPECTS(reflection_loss_db >= 0.0);
  Room room;
  const Vec2 bl{0.0, 0.0}, br{width_m, 0.0}, tr{width_m, height_m}, tl{0.0, height_m};
  room.add_wall({{bl, br}, reflection_loss_db, "south"});
  room.add_wall({{br, tr}, reflection_loss_db, "east"});
  room.add_wall({{tr, tl}, reflection_loss_db, "north"});
  room.add_wall({{tl, bl}, reflection_loss_db, "west"});
  return room;
}

Room Room::hallway(double length_m, double width_m, double reflection_loss_db) {
  UWB_EXPECTS(length_m > 0.0 && width_m > 0.0);
  Room room;
  room.add_wall({{{0.0, 0.0}, {length_m, 0.0}}, reflection_loss_db, "side-a"});
  room.add_wall({{{0.0, width_m}, {length_m, width_m}}, reflection_loss_db, "side-b"});
  return room;
}

void Room::add_obstacle(Obstacle o) {
  UWB_EXPECTS(std::isfinite(o.segment.a.x) && std::isfinite(o.segment.a.y) &&
              std::isfinite(o.segment.b.x) && std::isfinite(o.segment.b.y));
  obstacles_.push_back(std::move(o));
  const std::size_t i = obstacles_.size() - 1;
  const Box b = bounds_of(obstacles_[i].segment);
  const ObstacleIndex& ix = index_;
  if (ix.nx == 0 || b.x0 < ix.x0 || b.y0 < ix.y0 || b.x1 > ix.x1 ||
      b.y1 > ix.y1) {
    regrid_obstacles(i);
  } else {
    bucket_obstacle(i);
  }
}

void Room::regrid_obstacles(std::size_t i) {
  ObstacleIndex& ix = index_;
  const Box b = bounds_of(obstacles_[i].segment);
  if (ix.nx == 0) {
    ix.x0 = b.x0;
    ix.y0 = b.y0;
    ix.x1 = b.x1;
    ix.y1 = b.y1;
  } else {
    // A side that must move moves by at least the box's extent on its
    // axis, so a run of additions regrids O(log extent) times.
    const double w = ix.x1 - ix.x0;
    const double h = ix.y1 - ix.y0;
    if (b.x0 < ix.x0) ix.x0 = std::min(b.x0, ix.x0 - w);
    if (b.x1 > ix.x1) ix.x1 = std::max(b.x1, ix.x1 + w);
    if (b.y0 < ix.y0) ix.y0 = std::min(b.y0, ix.y0 - h);
    if (b.y1 > ix.y1) ix.y1 = std::max(b.y1, ix.y1 + h);
  }
  const double budget = std::max(
      kMinIndexCells, kIndexCellsPerObstacle * static_cast<double>(i + 1));
  const double w = ix.x1 - ix.x0;
  const double h = ix.y1 - ix.y0;
  ix.cell_m = kObstacleCellM;
  while (cells_along(w, ix.cell_m) * cells_along(h, ix.cell_m) > budget)
    ix.cell_m *= 2.0;
  ix.nx = static_cast<std::int32_t>(cells_along(w, ix.cell_m));
  ix.ny = static_cast<std::int32_t>(cells_along(h, ix.cell_m));
  ix.head.assign(
      static_cast<std::size_t>(ix.nx) * static_cast<std::size_t>(ix.ny), -1);
  ix.entries.clear();
  for (std::size_t j = 0; j <= i; ++j) bucket_obstacle(j);
}

void Room::bucket_obstacle(std::size_t i) {
  ObstacleIndex& ix = index_;
  const Box b = bounds_of(obstacles_[i].segment);
  const std::int32_t cx0 = cell_coord(b.x0, ix.x0, ix.cell_m, ix.nx);
  const std::int32_t cx1 = cell_coord(b.x1, ix.x0, ix.cell_m, ix.nx);
  const std::int32_t cy0 = cell_coord(b.y0, ix.y0, ix.cell_m, ix.ny);
  const std::int32_t cy1 = cell_coord(b.y1, ix.y0, ix.cell_m, ix.ny);
  for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
      std::int32_t& head = ix.head[cell_slot(ix.nx, cx, cy)];
      ix.entries.push_back({static_cast<std::int32_t>(i), head, cx0, cy0});
      head = static_cast<std::int32_t>(ix.entries.size() - 1);
    }
  }
}

double Room::obstruction_loss_db(Vec2 a, Vec2 b) const {
  const ObstacleIndex& ix = index_;
  const Segment ray{a, b};
  const Box r = bounds_of(ray);
  // A strict crossing lies in both bounding boxes, and every obstacle's box
  // lies inside the index box.
  if (ix.nx == 0 || r.x1 < ix.x0 || r.x0 > ix.x1 || r.y1 < ix.y0 ||
      r.y0 > ix.y1)
    return 0.0;
  const std::int32_t cx0 = cell_coord(r.x0, ix.x0, ix.cell_m, ix.nx);
  const std::int32_t cx1 = cell_coord(r.x1, ix.x0, ix.cell_m, ix.nx);
  const std::int32_t cy0 = cell_coord(r.y0, ix.y0, ix.cell_m, ix.ny);
  const std::int32_t cy1 = cell_coord(r.y1, ix.y0, ix.cell_m, ix.ny);

  // Per-thread scratch, so concurrent const queries share nothing.
  thread_local std::vector<std::int32_t> hits;
  hits.clear();
  for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
      for (std::int32_t e = ix.head[cell_slot(ix.nx, cx, cy)]; e >= 0;) {
        const ObstacleIndex::Entry& entry =
            ix.entries[static_cast<std::size_t>(e)];
        e = entry.next;
        // Test each obstacle once: in the lowest cell its range shares with
        // the leg's.
        if (cx != std::max(entry.ix0, cx0) || cy != std::max(entry.iy0, cy0))
          continue;
        const Obstacle& o =
            obstacles_[static_cast<std::size_t>(entry.obstacle)];
        if (segments_intersect(ray, o.segment, /*strict=*/true)) {
          // Grows only while the per-thread scratch ramps to the most hits
          // one leg has had; steady state is allocation-free.
          hits.push_back(entry.obstacle);  // uwb-lint: allow(hot-path-alloc)
        }
      }
    }
  }
  // Ascending obstacle index: the order, and so the rounding, of a scan
  // over every obstacle.
  std::sort(hits.begin(), hits.end());
  double loss = 0.0;
  for (const std::int32_t h : hits)
    loss += obstacles_[static_cast<std::size_t>(h)].transmission_loss_db;
  return loss;
}

}  // namespace uwb::geom
