#pragma once
// Wireless channel model.
//
// Connectivity is disk-based (link exists iff distance <= min of the two
// radios' ranges) with a distance-dependent loss probability on top, so
// links near the edge of range are flaky — the "disadvantaged assets"
// regime of the paper. Jammers (an adversarial action, §II) raise loss to
// near-certainty inside their footprint while active.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/geometry.h"
#include "sim/time.h"

namespace iobt::net {

/// Radio capabilities of one node.
struct RadioProfile {
  /// Maximum communication range, meters.
  double range_m = 250.0;
  /// Link data rate, bits per second (drives transmission delay).
  double data_rate_bps = 1e6;
  /// Loss probability at zero distance (hardware floor).
  double base_loss = 0.01;
};

/// A circular jamming field, active during [start, end).
struct Jammer {
  sim::Vec2 center;
  double radius_m = 0.0;
  sim::SimTime start;
  sim::SimTime end = sim::SimTime::max();
  /// Loss probability forced on links with an endpoint inside the field.
  double induced_loss = 0.98;

  bool active_at(sim::SimTime t) const { return t >= start && t < end; }
  bool covers(sim::Vec2 p) const { return sim::distance(center, p) <= radius_m; }
};

/// An RF-opaque building footprint (urban terrain, §I: operations
/// "increasingly carried out in urban contexts"). Links whose line of
/// sight crosses a building are blocked outright — the connectivity graph
/// bends around the skyline, which is what makes urban routing hard.
struct Building {
  sim::Rect footprint;
};

/// Computes per-transmission link quality between two radios.
class ChannelModel {
 public:
  /// Exponent shaping how loss grows toward the edge of range: loss rises
  /// as (d / range)^edge_exponent from base_loss toward max_edge_loss.
  ChannelModel(double edge_exponent = 2.0, double max_edge_loss = 0.35)
      : edge_exponent_(edge_exponent), max_edge_loss_(max_edge_loss) {}

  void add_jammer(Jammer j) { jammers_.push_back(j); }
  const std::vector<Jammer>& jammers() const { return jammers_; }

  void add_building(sim::Rect footprint) { buildings_.push_back({footprint}); }
  const std::vector<Building>& buildings() const { return buildings_; }

  double edge_exponent() const { return edge_exponent_; }
  double max_edge_loss() const { return max_edge_loss_; }

  /// True if the straight path between two points crosses a building.
  /// Symmetric in its endpoints: the segment test's rounding depends on
  /// which end it starts from, so the endpoints are tested in
  /// lexicographic order and a link looks the same from both radios.
  bool line_of_sight_blocked(sim::Vec2 a, sim::Vec2 b) const {
    if (b.x < a.x || (b.x == a.x && b.y < a.y)) std::swap(a, b);
    for (const Building& bl : buildings_) {
      if (sim::segment_intersects_rect(a, b, bl.footprint)) return true;
    }
    return false;
  }

  /// True if two radios at these positions can exchange frames at all:
  /// within both ranges AND line of sight clear of buildings. Symmetric in
  /// the two radios, so Network's edge store does not depend on which
  /// endpoint moved last.
  /// Forced inline: it runs once per candidate in Network's per-frame and
  /// per-move loops, and GCC's inlining heuristics leave it an out-of-line
  /// call in Network::transmit in an optimized build
  /// (EXPERIMENTS.md N4). In open air the answer is the distance test's
  /// flag, with no branch on it: in Network's per-move loop about half of
  /// the candidates are out of range, so a branch on the distance is
  /// mispredicted often (EXPERIMENTS.md N5).
  /// The primitive takes the two ranges: Network's per-move loop reads a
  /// candidate's position and range from its grid entry. d2 <= lim^2 is
  /// false for NaN; std::islessequal keeps it branch-free in that loop,
  /// where GCC compiles `<=` to a branch (EXPERIMENTS.md N10).
  [[gnu::always_inline]]
  bool in_range(sim::Vec2 a, double range_a, sim::Vec2 b, double range_b) const {
    const double lim = std::min(range_a, range_b);
    const bool within = std::islessequal(sim::distance2(a, b), lim * lim);
    if (buildings_.empty()) return within;
    return within && !line_of_sight_blocked(a, b);
  }
  /// The same test on two radio profiles.
  [[gnu::always_inline]]
  bool in_range(sim::Vec2 a, const RadioProfile& ra, sim::Vec2 b,
                const RadioProfile& rb) const {
    return in_range(a, ra.range_m, b, rb.range_m);
  }

  /// Loss probability for one frame from a->b at virtual time t.
  /// Returns 1.0 when out of range.
  double loss_probability(sim::Vec2 a, const RadioProfile& ra, sim::Vec2 b,
                          const RadioProfile& rb, sim::SimTime t) const;

  /// Time to push `bytes` onto the air at the sender's data rate.
  static sim::Duration transmission_delay(const RadioProfile& sender, std::size_t bytes) {
    const double seconds = static_cast<double>(bytes) * 8.0 / sender.data_rate_bps;
    return sim::Duration::seconds(seconds);
  }

 private:
  double edge_exponent_;
  double max_edge_loss_;
  std::vector<Jammer> jammers_;
  std::vector<Building> buildings_;
};

}  // namespace iobt::net
