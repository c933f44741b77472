// Image-source computation of specular multipath (paper Fig. 1a).
//
// For each wall the transmitter is mirrored across the wall line; if the
// straight path from the image to the receiver crosses the wall segment, a
// first-order specular reflection exists with path length |image - rx|.
// Second-order paths mirror the image across a second wall.
#pragma once

#include <vector>

#include "geom/room.hpp"

namespace uwb::geom {

/// One specular propagation path between a TX and an RX.
struct SpecularPath {
  /// Total geometric path length [m].
  double length_m = 0.0;
  /// Sum of the reflection losses of all bounces [dB] (0 for the LOS path).
  double reflection_loss_db = 0.0;
  /// Obstacle transmission loss accumulated along the path [dB].
  double obstruction_loss_db = 0.0;
  /// Number of wall bounces (0 = line of sight).
  int order = 0;
  /// Indices (into Room::walls()) of the bounce walls, in order.
  std::vector<int> wall_indices;
};

/// LOS path plus specular reflections up to `max_order` (1 or 2).
/// The LOS path is always first in the result.
std::vector<SpecularPath> compute_paths(const Room& room, Vec2 tx, Vec2 rx,
                                        int max_order = 1);

}  // namespace uwb::geom
