#pragma once
// Behavior prediction over tracks (§II: battlefield services "predict
// behaviors/activities"; §III-B: "track a collection of insurgents and
// report on their activities and rendezvous points").
//
// predict_rendezvous extrapolates confirmed tracks forward under constant
// velocity and looks for a time horizon at which several tracks converge
// within a radius: a predicted rendezvous, reported with location,
// time-to-event, and the participating tracks. bench_tracking drives it.

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/geometry.h"
#include "track/tracker.h"

namespace iobt::track {

struct Rendezvous {
  sim::Vec2 point;
  /// Seconds from now at which the convergence is tightest.
  double eta_s = 0.0;
  /// Track ids predicted to converge.
  std::vector<TrackId> participants;
  /// Mean distance of participants from the point at the ETA (m).
  double tightness_m = 0.0;
};

struct RendezvousConfig {
  /// Extrapolation horizon and step.
  double horizon_s = 300.0;
  double step_s = 10.0;
  /// Convergence radius: participants within this of their centroid.
  double radius_m = 80.0;
  /// Minimum tracks converging to call it a rendezvous.
  std::size_t min_participants = 2;
  /// Ignore groups that are ALREADY within the radius (that is a meeting
  /// in progress, not a prediction).
  bool require_future = true;
};

/// Scans the horizon for the tightest future convergence of confirmed
/// tracks under constant-velocity extrapolation. Returns nullopt if no
/// group of min_participants ever falls within radius_m.
std::optional<Rendezvous> predict_rendezvous(const MultiTargetTracker& tracker,
                                             const RendezvousConfig& cfg = {});

}  // namespace iobt::track
