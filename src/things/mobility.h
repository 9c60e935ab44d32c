#pragma once
// Mobility models. Positions advance in discrete ticks driven by the World;
// models are deterministic functions of their Rng substream.

#include <memory>

#include "sim/geometry.h"
#include "sim/rng.h"

namespace iobt::sim {
class WireReader;  // sim/wire.h
class WireWriter;
}  // namespace iobt::sim

namespace iobt::things {

/// Strategy interface: given the current position and elapsed seconds,
/// produce the next position. Implementations keep their own state.
class MobilityModel {
 public:
  /// Stable wire tag for checkpoint persistence — order is the on-disk
  /// format, append only.
  enum class Kind : std::uint8_t {
    kStationary = 0,
    kRandomWaypoint = 1,
    kGridPatrol = 2,
    kSeekPoint = 3,
  };

  virtual ~MobilityModel() = default;
  virtual sim::Vec2 step(sim::Vec2 current, double dt_s) = 0;
  virtual Kind kind() const = 0;
  /// Writes the full model state (Rng position included) to the wire, so a
  /// restored branch advances exactly where the saved run would have. The
  /// kind tag itself is written/dispatched by encode_model / decode_model.
  virtual void encode(sim::WireWriter& w) const = 0;
};

/// Kind tag + state; the inverse of decode_model.
void encode_model(sim::WireWriter& w, const MobilityModel& m);
/// Rebuilds a model from the wire, or nullptr on a malformed tag/state
/// (the reader's fail flag is latched either way).
std::shared_ptr<MobilityModel> decode_model(sim::WireReader& r);

/// Never moves (fixed infrastructure, unattended sensors).
class Stationary final : public MobilityModel {
 public:
  sim::Vec2 step(sim::Vec2 current, double /*dt_s*/) override { return current; }
  Kind kind() const override { return Kind::kStationary; }
  void encode(sim::WireWriter& w) const override;
};

/// Classic random waypoint inside an area: pick a uniform destination,
/// travel at the configured speed, pause, repeat.
class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(sim::Rect area, double speed_mps, double pause_s, sim::Rng rng);
  sim::Vec2 step(sim::Vec2 current, double dt_s) override;
  Kind kind() const override { return Kind::kRandomWaypoint; }
  void encode(sim::WireWriter& w) const override;
  static std::shared_ptr<RandomWaypoint> decode(sim::WireReader& r);

 private:
  sim::Rect area_;
  double speed_;
  double pause_s_;
  sim::Rng rng_;
  sim::Vec2 target_;
  bool has_target_ = false;
  double pause_left_ = 0.0;
};

/// Patrols along axis-aligned streets of an urban grid: moves in straight
/// segments, turning at intersections (grid pitch `block_m`).
class GridPatrol final : public MobilityModel {
 public:
  GridPatrol(sim::Rect area, double block_m, double speed_mps, sim::Rng rng);
  sim::Vec2 step(sim::Vec2 current, double dt_s) override;
  Kind kind() const override { return Kind::kGridPatrol; }
  void encode(sim::WireWriter& w) const override;
  static std::shared_ptr<GridPatrol> decode(sim::WireReader& r);

 private:
  void pick_heading(sim::Vec2 at);

  sim::Rect area_;
  double block_m_;
  double speed_;
  sim::Rng rng_;
  sim::Vec2 heading_;       // unit vector along a street axis
  double until_turn_m_ = 0; // distance to the next intersection decision
};

/// Moves toward a fixed rally point and stops there (evacuation flows).
class SeekPoint final : public MobilityModel {
 public:
  SeekPoint(sim::Vec2 goal, double speed_mps) : goal_(goal), speed_(speed_mps) {}
  sim::Vec2 step(sim::Vec2 current, double dt_s) override;
  Kind kind() const override { return Kind::kSeekPoint; }
  void encode(sim::WireWriter& w) const override;
  bool arrived(sim::Vec2 current, double tol_m = 1.0) const {
    return sim::distance(current, goal_) <= tol_m;
  }
  sim::Vec2 goal() const { return goal_; }

 private:
  sim::Vec2 goal_;
  double speed_;
};

}  // namespace iobt::things
