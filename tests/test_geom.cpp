// Unit tests: 2-D geometry, rooms, and the image-source method (Fig. 1a).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/expects.hpp"
#include "common/random.hpp"
#include "geom/image_source.hpp"
#include "geom/room.hpp"
#include "geom/vec2.hpp"
#include "sim/floorplan.hpp"

namespace uwb::geom {
namespace {

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 1.0}));
  EXPECT_EQ((a - b), (Vec2{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Vec2{2.0, 4.0}));
  EXPECT_EQ((a / 2.0), (Vec2{0.5, 1.0}));
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(cross(a, b), -7.0);
}

TEST(Vec2Test, NormAndDistance) {
  EXPECT_DOUBLE_EQ(norm(Vec2{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec2{1.0, 1.0}, Vec2{4.0, 5.0}), 5.0);
  const Vec2 unit = normalized(Vec2{3.0, 4.0});
  EXPECT_NEAR(norm(unit), 1.0, 1e-12);
  EXPECT_EQ(normalized(Vec2{0.0, 0.0}), (Vec2{0.0, 0.0}));
}

TEST(SegmentTest, LengthAndMidpoint) {
  const Segment s{{0.0, 0.0}, {4.0, 0.0}};
  EXPECT_DOUBLE_EQ(s.length(), 4.0);
  EXPECT_EQ(s.midpoint(), (Vec2{2.0, 0.0}));
}

TEST(SegmentTest, ProperIntersection) {
  const Segment a{{0.0, 0.0}, {2.0, 2.0}};
  const Segment b{{0.0, 2.0}, {2.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_TRUE(segments_intersect(a, b, /*strict=*/true));
}

TEST(SegmentTest, DisjointSegments) {
  const Segment a{{0.0, 0.0}, {1.0, 0.0}};
  const Segment b{{0.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(segments_intersect(a, b));
}

TEST(SegmentTest, TouchingEndpointsStrictVsLoose) {
  const Segment a{{0.0, 0.0}, {1.0, 1.0}};
  const Segment b{{1.0, 1.0}, {2.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b, /*strict=*/false));
  EXPECT_FALSE(segments_intersect(a, b, /*strict=*/true));
}

TEST(SegmentTest, CollinearOverlap) {
  const Segment a{{0.0, 0.0}, {2.0, 0.0}};
  const Segment b{{1.0, 0.0}, {3.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_FALSE(segments_intersect(a, b, /*strict=*/true));
}

TEST(SegmentTest, LineIntersection) {
  Vec2 p;
  ASSERT_TRUE(line_intersection(Segment{{0.0, 0.0}, {1.0, 0.0}},
                                Segment{{5.0, -1.0}, {5.0, 1.0}}, p));
  EXPECT_NEAR(p.x, 5.0, 1e-12);
  EXPECT_NEAR(p.y, 0.0, 1e-12);
  // Parallel lines: no intersection.
  EXPECT_FALSE(line_intersection(Segment{{0.0, 0.0}, {1.0, 0.0}},
                                 Segment{{0.0, 1.0}, {1.0, 1.0}}, p));
}

TEST(SegmentTest, MirrorAcross) {
  const Segment wall{{0.0, 0.0}, {10.0, 0.0}};  // the x-axis
  const Vec2 img = mirror_across(wall, {3.0, 2.0});
  EXPECT_NEAR(img.x, 3.0, 1e-12);
  EXPECT_NEAR(img.y, -2.0, 1e-12);
  // Mirroring twice returns the original point.
  const Vec2 back = mirror_across(wall, img);
  EXPECT_NEAR(back.y, 2.0, 1e-12);
}

TEST(SegmentTest, ProjectT) {
  const Segment s{{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_DOUBLE_EQ(project_t(s, {2.5, 7.0}), 0.25);
  EXPECT_DOUBLE_EQ(project_t(s, {-5.0, 0.0}), -0.5);
  EXPECT_THROW(project_t(Segment{{1.0, 1.0}, {1.0, 1.0}}, {0.0, 0.0}),
               PreconditionError);
}

TEST(RoomTest, RectangularHasFourWalls) {
  const Room room = Room::rectangular(8.0, 5.0, 7.0);
  ASSERT_EQ(room.walls().size(), 4u);
  for (const Wall& w : room.walls())
    EXPECT_DOUBLE_EQ(w.reflection_loss_db, 7.0);
  EXPECT_THROW(Room::rectangular(0.0, 5.0), PreconditionError);
}

TEST(RoomTest, HallwayHasTwoWalls) {
  const Room room = Room::hallway(30.0, 2.4);
  EXPECT_EQ(room.walls().size(), 2u);
}

TEST(RoomTest, ObstructionLossAccumulates) {
  Room room = Room::rectangular(10.0, 10.0);
  room.add_obstacle({{{5.0, 0.0}, {5.0, 10.0}}, 12.0, "divider"});
  room.add_obstacle({{{7.0, 0.0}, {7.0, 10.0}}, 5.0, "shelf"});
  EXPECT_DOUBLE_EQ(room.obstruction_loss_db({1.0, 5.0}, {9.0, 5.0}), 17.0);
  EXPECT_DOUBLE_EQ(room.obstruction_loss_db({1.0, 5.0}, {4.0, 5.0}), 0.0);
  // A ray parallel to (not crossing) the obstacle is free.
  EXPECT_DOUBLE_EQ(room.obstruction_loss_db({1.0, 1.0}, {4.0, 1.0}), 0.0);
}

// --- obstacle index ---------------------------------------------------------
//
// obstruction_loss_db tests only the obstacles indexed near the leg. The
// oracle is the scan over every obstacle it replaced: the same strict test,
// losses summed in ascending obstacle index. The index must agree with it
// bit for bit.

double full_scan_loss_db(const Room& room, Vec2 a, Vec2 b) {
  double loss = 0.0;
  for (const Obstacle& o : room.obstacles())
    if (segments_intersect(Segment{a, b}, o.segment, /*strict=*/true))
      loss += o.transmission_loss_db;
  return loss;
}

int hits_of(const Room& room, Vec2 a, Vec2 b) {
  int hits = 0;
  for (const Obstacle& o : room.obstacles())
    hits += segments_intersect(Segment{a, b}, o.segment, true) ? 1 : 0;
  return hits;
}

/// Every leg between two points of a lattice with `step` spacing over
/// [lo, hi]^2 (zero-length legs included) agrees with the full scan.
void expect_lattice_matches(const Room& room, double lo, double hi,
                            double step) {
  std::vector<Vec2> points;
  for (double x = lo; x <= hi; x += step)
    for (double y = lo; y <= hi; y += step) points.push_back({x, y});
  int crossing = 0;
  for (const Vec2 a : points) {
    for (const Vec2 b : points) {
      ASSERT_EQ(room.obstruction_loss_db(a, b), full_scan_loss_db(room, a, b))
          << "(" << a.x << ", " << a.y << ") -> (" << b.x << ", " << b.y << ")";
      crossing += hits_of(room, a, b) >= 2 ? 1 : 0;
    }
  }
  EXPECT_GT(crossing, 100);  // the sweep exercises multi-hit sums
}

/// Hand-built obstacles on 4 m multiples from the origin (the index's first
/// cell side, with the first obstacle pinning the covered box's corner),
/// with non-integer losses, added out of spatial order.
Room lattice_room(Vec2 shift) {
  const auto add = [&](Room& room, Vec2 a, Vec2 b, double loss) {
    room.add_obstacle({{a + shift, b + shift}, loss, "o"});
  };
  Room room;
  add(room, {0.0, 0.0}, {16.0, 0.0}, 0.1);
  add(room, {8.0, 2.0}, {8.0, 14.0}, 0.2);    // on a cell column boundary
  add(room, {4.0, 8.0}, {16.0, 8.0}, 0.3);    // on a cell row boundary
  add(room, {2.0, 2.0}, {14.0, 14.0}, 0.7);   // through cell corners
  add(room, {12.0, 1.0}, {12.0, 3.0}, 1.1);
  add(room, {6.0, 12.0}, {10.0, 12.0}, 2.9);
  add(room, {16.0, 0.0}, {16.0, 16.0}, 0.45);
  add(room, {3.0, 14.0}, {15.0, 2.0}, 1.3);
  add(room, {8.0, 4.0}, {8.0, 6.0}, 0.15);    // collinear with the 0.2 one
  return room;
}

TEST(ObstacleIndexTest, LatticeLegsMatchFullScan) {
  // Legs along cell boundaries and obstacles (collinear overlap), legs
  // ending on obstacles and at cell corners, axis-aligned and diagonal.
  expect_lattice_matches(lattice_room({0.0, 0.0}), -2.0, 18.0, 1.0);
}

TEST(ObstacleIndexTest, NegativeCoordinatesMatchFullScan) {
  // The covered box grows towards negative coordinates after the first
  // obstacle, so the index regrids on the way.
  expect_lattice_matches(lattice_room({-20.0, -13.0}), -22.0, -2.0, 1.0);
}

TEST(ObstacleIndexTest, LossesSumInAscendingObstacleIndex) {
  // Three parallel walls crossed by one leg, the lowest index furthest
  // along it. (0.1 + 0.2) + 0.3 differs from 0.3 + 0.2 + 0.1 in the last
  // bit, so only ascending-index summation gives the full scan's value.
  ASSERT_NE((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1);
  Room room;
  room.add_obstacle({{{30.0, 0.0}, {30.0, 1.0}}, 0.1, "far"});
  room.add_obstacle({{{20.0, 0.0}, {20.0, 1.0}}, 0.2, "middle"});
  room.add_obstacle({{{10.0, 0.0}, {10.0, 1.0}}, 0.3, "near"});
  const double loss = room.obstruction_loss_db({0.0, 0.5}, {40.0, 0.5});
  EXPECT_EQ(loss, (0.1 + 0.2) + 0.3);
  EXPECT_EQ(loss, full_scan_loss_db(room, {0.0, 0.5}, {40.0, 0.5}));
}

TEST(ObstacleIndexTest, LegEndingOnObstacleAndCollinearLegAreClear) {
  Room room;
  room.add_obstacle({{{4.0, 0.0}, {4.0, 8.0}}, 6.5, "wall"});
  // Strict crossing: touching the obstacle is not crossing it.
  EXPECT_EQ(room.obstruction_loss_db({0.0, 4.0}, {4.0, 4.0}), 0.0);
  EXPECT_EQ(room.obstruction_loss_db({4.0, 1.0}, {4.0, 6.0}), 0.0);
  EXPECT_EQ(room.obstruction_loss_db({4.0, -2.0}, {4.0, 10.0}), 0.0);
  EXPECT_EQ(room.obstruction_loss_db({0.0, 4.0}, {8.0, 4.0}), 6.5);
  EXPECT_EQ(room.obstruction_loss_db({4.0, 4.0}, {4.0, 4.0}), 0.0);
}

TEST(ObstacleIndexTest, EmptyRoomAndFarLegsAreClear) {
  const Room empty = Room::rectangular(10.0, 10.0);
  EXPECT_EQ(empty.obstruction_loss_db({1.0, 1.0}, {9.0, 9.0}), 0.0);
  const Room room = lattice_room({0.0, 0.0});
  EXPECT_EQ(room.obstruction_loss_db({100.0, 100.0}, {200.0, 150.0}), 0.0);
  EXPECT_EQ(room.obstruction_loss_db({-1e9, 5.0}, {1e9, 5.0}),
            full_scan_loss_db(room, {-1e9, 5.0}, {1e9, 5.0}));
}

TEST(ObstacleIndexTest, NonFiniteObstacleRejected) {
  Room room;
  EXPECT_THROW(room.add_obstacle({{{0.0, 0.0}, {NAN, 1.0}}, 1.0, "bad"}),
               PreconditionError);
  EXPECT_THROW(room.add_obstacle({{{0.0, INFINITY}, {1.0, 1.0}}, 1.0, "bad"}),
               PreconditionError);
}

TEST(ObstacleIndexTest, RandomLegsOverFloorPlansMatchFullScan) {
  Rng rng(2024);
  const sim::FloorPlan building =
      sim::make_floor_plan(sim::plan_for_nodes(201, /*nodes_per_room=*/1.0));
  ASSERT_EQ(building.room.obstacles().size(), 782u);
  sim::FloorPlanConfig small_cfg;
  small_cfg.rooms_x = 3;
  small_cfg.rooms_y = 2;
  small_cfg.partition_loss_db = 6.3;
  const sim::FloorPlan small = sim::make_floor_plan(small_cfg);

  // The building again with non-integer losses, added in shuffled order, so
  // ascending obstacle index is unrelated to position.
  std::vector<Obstacle> shuffled = building.room.obstacles();
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                                static_cast<double>(i))]);
  Room scrambled;
  for (Obstacle o : shuffled) {
    o.transmission_loss_db = rng.uniform(0.1, 12.0);
    scrambled.add_obstacle(o);
  }

  const auto sweep = [&rng](const Room& room, double w, double h, int legs) {
    int multi_hit = 0;
    for (int i = 0; i < legs; ++i) {
      const Vec2 a{rng.uniform(-5.0, w + 5.0), rng.uniform(-5.0, h + 5.0)};
      // Short legs as image-source legs in one room, long ones across the
      // building.
      const double reach = i % 2 == 0 ? 8.0 : std::max(w, h);
      const Vec2 b{a.x + rng.uniform(-reach, reach),
                   a.y + rng.uniform(-reach, reach)};
      ASSERT_EQ(room.obstruction_loss_db(a, b), full_scan_loss_db(room, a, b))
          << "leg " << i;
      multi_hit += hits_of(room, a, b) >= 2 ? 1 : 0;
    }
    EXPECT_GT(multi_hit, legs / 20);
  };
  sweep(building.room, building.width_m(), building.height_m(), 3000);
  sweep(scrambled, building.width_m(), building.height_m(), 3000);
  sweep(small.room, small.width_m(), small.height_m(), 3000);

  // Node-to-node legs, as the medium realizes them.
  const auto nodes = sim::place_nodes(building, 201, 7);
  for (std::size_t i = 0; i < nodes.size(); i += 3)
    for (std::size_t j = 0; j < nodes.size(); j += 5)
      ASSERT_EQ(scrambled.obstruction_loss_db(nodes[i], nodes[j]),
                full_scan_loss_db(scrambled, nodes[i], nodes[j]));
}

TEST(ObstacleIndexTest, FarApartObstaclesMatchFullScan) {
  // Obstacles 200 km apart: the index coarsens its cells to stay small.
  Room room;
  room.add_obstacle({{{0.0, 0.0}, {0.0, 4.0}}, 1.5, "near"});
  room.add_obstacle({{{1e5, 1e5}, {1e5 + 3.0, 1e5}}, 2.5, "far"});
  room.add_obstacle({{{-1e5, 2.0}, {-1e5, 3.0}}, 3.5, "far west"});
  room.add_obstacle({{{2.0, -1.0}, {2.0, 5.0}}, 0.25, "near 2"});
  const std::vector<std::pair<Vec2, Vec2>> legs = {
      {{-1.0, 2.0}, {3.0, 2.0}},         {{-1e5 - 1.0, 2.5}, {3.0, 2.5}},
      {{1e5 + 1.0, 1e5 - 1.0}, {1e5 + 1.0, 1e5 + 1.0}},
      {{-2e5, 2.5}, {2e5, 2.5}},         {{5.0, 5.0}, {6.0, 6.0}}};
  for (const auto& [a, b] : legs)
    EXPECT_EQ(room.obstruction_loss_db(a, b), full_scan_loss_db(room, a, b));
  EXPECT_EQ(room.obstruction_loss_db({-1e5 - 1.0, 2.5}, {3.0, 2.5}),
            3.5 + 1.5 + 0.25);
}

TEST(ObstacleIndexTest, CopiedRoomKeepsItsIndex) {
  const Room original = lattice_room({0.0, 0.0});
  Room copy = original;
  // Grows the copy's covered box: the copy regrids, the original keeps its
  // own index.
  copy.add_obstacle({{{-30.0, 5.0}, {40.0, 5.0}}, 4.25, "long"});
  const Vec2 a{1.0, 1.0}, b{15.0, 15.0}, c{-20.0, 0.0}, d{-20.0, 10.0};
  EXPECT_EQ(original.obstruction_loss_db(a, b),
            full_scan_loss_db(original, a, b));
  EXPECT_EQ(copy.obstruction_loss_db(a, b), full_scan_loss_db(copy, a, b));
  EXPECT_EQ(copy.obstruction_loss_db(a, b),
            original.obstruction_loss_db(a, b) + 4.25);
  EXPECT_EQ(original.obstruction_loss_db(c, d), 0.0);
  EXPECT_EQ(copy.obstruction_loss_db(c, d), 4.25);
}

TEST(ObstacleIndexTest, ConcurrentConstQueriesAgree) {
  // Worker threads share one const Room, as Monte-Carlo trials share a
  // scenario's geometry; every thread sees the sequential losses.
  const sim::FloorPlan building =
      sim::make_floor_plan(sim::plan_for_nodes(201, /*nodes_per_room=*/1.0));
  const auto nodes = sim::place_nodes(building, 201, 3);
  std::vector<double> expected;
  for (const Vec2 a : nodes)
    expected.push_back(building.room.obstruction_loss_db(building.center(), a));
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> seen(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        seen[static_cast<std::size_t>(t)].clear();
        for (const Vec2 a : nodes)
          seen[static_cast<std::size_t>(t)].push_back(
              building.room.obstruction_loss_db(building.center(), a));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::vector<double>& s : seen) EXPECT_EQ(s, expected);
}

TEST(ImageSourceTest, LosAlwaysFirst) {
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 1);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front().order, 0);
  EXPECT_DOUBLE_EQ(paths.front().length_m, 6.0);
  EXPECT_DOUBLE_EQ(paths.front().reflection_loss_db, 0.0);
}

TEST(ImageSourceTest, RectangularRoomGivesFourFirstOrderPaths) {
  // Interior TX/RX in a rectangle: one specular bounce per wall (Fig. 1a).
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 1);
  int first_order = 0;
  for (const auto& p : paths)
    if (p.order == 1) ++first_order;
  EXPECT_EQ(first_order, 4);
}

TEST(ImageSourceTest, KnownReflectionLength) {
  // TX (2,3) -> floor (y=0) -> RX (8,3): image at (2,-3), length
  // |(8,3)-(2,-3)| = sqrt(36+36).
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 1);
  const double expected = std::sqrt(72.0);
  bool found = false;
  for (const auto& p : paths)
    if (p.order == 1 && std::abs(p.length_m - expected) < 1e-9) found = true;
  EXPECT_TRUE(found);
}

TEST(ImageSourceTest, ReflectionAlwaysLongerThanLos) {
  const Room room = Room::rectangular(12.0, 7.0);
  const auto paths = compute_paths(room, {1.5, 2.0}, {10.0, 5.5}, 2);
  const double los = paths.front().length_m;
  for (const auto& p : paths) {
    if (p.order >= 1) {
      EXPECT_GT(p.length_m, los);
    }
  }
}

TEST(ImageSourceTest, SecondOrderPathsExist) {
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 2);
  int second = 0;
  for (const auto& p : paths)
    if (p.order == 2) {
      ++second;
      EXPECT_EQ(p.wall_indices.size(), 2u);
      // Two bounces accumulate two reflection losses.
      EXPECT_DOUBLE_EQ(p.reflection_loss_db, 12.0);
    }
  EXPECT_GT(second, 0);
}

TEST(ImageSourceTest, MaxOrderZeroIsLosOnly) {
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 0);
  EXPECT_EQ(paths.size(), 1u);
  EXPECT_THROW(compute_paths(room, {1.0, 1.0}, {2.0, 2.0}, 3), PreconditionError);
}

TEST(ImageSourceTest, HallwayGivesTwoSideReflections) {
  const Room room = Room::hallway(40.0, 2.4);
  const auto paths = compute_paths(room, {2.0, 1.2}, {12.0, 1.2}, 1);
  int first_order = 0;
  for (const auto& p : paths)
    if (p.order == 1) ++first_order;
  EXPECT_EQ(first_order, 2);
}

TEST(ImageSourceTest, ObstructedLosCarriesLoss) {
  Room room = Room::rectangular(10.0, 6.0);
  room.add_obstacle({{{5.0, 0.0}, {5.0, 6.0}}, 15.0, "wall"});
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 0);
  EXPECT_DOUBLE_EQ(paths.front().obstruction_loss_db, 15.0);
}

TEST(ImageSourceTest, EmptyRoomStillHasLos) {
  const Room room;  // no walls at all
  const auto paths = compute_paths(room, {0.0, 0.0}, {3.0, 4.0}, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths.front().length_m, 5.0);
}

}  // namespace
}  // namespace uwb::geom
