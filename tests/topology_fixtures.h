#pragma once
// Graph fixtures for tests that need a random radio-like graph without a
// Network: positions uniform in an area, an edge for every pair within a
// radius, weighted by distance.

#include <cmath>
#include <vector>

#include "net/topology.h"
#include "sim/geometry.h"
#include "sim/rng.h"

namespace iobt::testing {

/// Random geometric graph: n nodes uniform in `area`, edge iff distance
/// <= radius, edge weight = distance. Also returns the positions.
inline net::Topology random_geometric(std::size_t n, sim::Rect area, double radius,
                                      sim::Rng& rng, std::vector<sim::Vec2>* positions) {
  net::Topology t(n);
  std::vector<sim::Vec2> pos(n);
  for (auto& p : pos) {
    p = {rng.uniform(area.min.x, area.max.x), rng.uniform(area.min.y, area.max.y)};
  }
  const double r2 = radius * radius;
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) {
      const double d2 = sim::distance2(pos[a], pos[b]);
      if (d2 <= r2) t.add_edge_unique(a, b, std::sqrt(d2));
    }
  }
  if (positions) *positions = std::move(pos);
  return t;
}

}  // namespace iobt::testing
