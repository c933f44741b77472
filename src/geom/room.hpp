// Floor-plan model: reflecting walls plus attenuating obstacles.
//
// Walls produce specular multipath (paper Fig. 1a); obstacles attenuate rays
// that pass through them (used for the NLOS extension study).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/vec2.hpp"

namespace uwb::geom {

/// A reflecting wall segment.
struct Wall {
  Segment segment;
  /// Power reflection loss in dB (>= 0); typical plasterboard ~ 4-8 dB.
  double reflection_loss_db = 6.0;
  std::string name;
};

/// An obstacle that attenuates rays crossing it (e.g., a person, cabinet).
struct Obstacle {
  Segment segment;
  /// Power loss in dB added to any ray crossing the obstacle.
  double transmission_loss_db = 10.0;
  std::string name;
};

/// A 2-D environment: a set of walls and obstacles.
class Room {
 public:
  Room() = default;

  /// Axis-aligned rectangular room [0,width] x [0,height] with four walls of
  /// equal reflection loss (the paper's Fig. 1a scenario).
  static Room rectangular(double width_m, double height_m,
                          double reflection_loss_db = 6.0);

  /// A long corridor: like rectangular() but with the two long side walls
  /// only (open ends), matching the paper's hallway experiments.
  static Room hallway(double length_m, double width_m,
                      double reflection_loss_db = 5.0);

  void add_wall(Wall w) { walls_.push_back(std::move(w)); }
  /// Append an obstacle (finite endpoints) and bucket it into the obstacle
  /// index: amortized O(cells it covers).
  void add_obstacle(Obstacle o);

  const std::vector<Wall>& walls() const { return walls_; }
  const std::vector<Obstacle>& obstacles() const { return obstacles_; }

  /// Total obstacle transmission loss (dB) along the open segment from a to
  /// b; 0 when the path is clear. Sums the losses of the obstacles the
  /// segment strictly crosses in ascending obstacle index, testing only the
  /// obstacles indexed in cells its bounding box touches.
  double obstruction_loss_db(Vec2 a, Vec2 b) const;

 private:
  /// Obstacles bucketed into square cells over a box that covers them all
  /// (DESIGN.md Sect. 13.7). Cells are a dense row-major array; each holds
  /// a chain of entries. Indices, not pointers, so a copied Room carries a
  /// valid index.
  struct ObstacleIndex {
    struct Entry {
      std::int32_t obstacle = 0;
      /// Next entry of the same cell; -1 ends the chain.
      std::int32_t next = -1;
      /// The obstacle's lowest cell column and row.
      std::int32_t ix0 = 0;
      std::int32_t iy0 = 0;
    };
    /// Covered box [m]; every obstacle's bounding box lies inside it.
    double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;
    double cell_m = 0.0;
    std::int32_t nx = 0, ny = 0;
    /// First entry of each cell, -1 when empty.
    std::vector<std::int32_t> head;
    std::vector<Entry> entries;
  };

  /// Bucket obstacle `i` into the index cells its bounding box covers.
  void bucket_obstacle(std::size_t i);
  /// Grow the covered box to take `i`'s bounding box, choose the cell size,
  /// and re-bucket obstacles 0..i.
  void regrid_obstacles(std::size_t i);

  std::vector<Wall> walls_;
  std::vector<Obstacle> obstacles_;
  ObstacleIndex index_;
};

}  // namespace uwb::geom
