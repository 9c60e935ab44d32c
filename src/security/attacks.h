#pragma once
// Attack injection framework.
//
// The paper's environment is "contested and adversarial" (§II): jamming,
// node capture, Sybil identities, data poisoning, and probe saturation.
// AttackInjector scripts these against a World/Network on the simulation
// clock so every experiment can be re-run with identical adversary
// behaviour. Attacks are also the failure-injection mechanism for the
// resilience tests.

#include <functional>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/checkpoint.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "things/world.h"

namespace iobt::security {

/// Record of one executed attack, for experiment logging.
struct AttackEvent {
  std::string type;
  sim::SimTime at;
  std::string detail;
};

/// Scripts attacks against a World/Network on the simulation clock.
///
/// The schedule is declarative: every schedule_* call appends one (or two,
/// for windowed attacks) descriptor rows and arms a kernel event that fires
/// the row by index. Descriptors — not closures — are what checkpoints
/// save, so restore can verify the restoring stack declared the same
/// attack campaign, copy each row's fired flag and private Rng stream, and
/// re-arm the unfired rows under their original FIFO seqs.
///
/// Rng convention: mass_kill and sybil derive a private child stream from
/// the caller's Rng, keyed by the row index — passing one Rng (or copies
/// of it) to several schedule_* calls yields INDEPENDENT streams instead
/// of silently duplicated ones.
class AttackInjector : public sim::Checkpointable {
 public:
  explicit AttackInjector(things::World& world);
  ~AttackInjector() override;

  // --- Communications attacks -------------------------------------------

  /// Jams a circular region during [start, end): frames with an endpoint
  /// inside are lost with probability `strength`.
  void schedule_jamming(sim::Vec2 center, double radius_m, sim::SimTime start,
                        sim::SimTime end, double strength = 0.98);

  /// Blinds a sensing modality inside a region during [start, end) —
  /// smoke, obscurants, dazzling (§IV-B's "smoke or other phenomena
  /// render visual tracking unreliable"). Severity 1.0 = total blackout.
  void schedule_sensor_blackout(things::Modality modality, sim::Rect region,
                                sim::SimTime start, sim::SimTime end,
                                double severity = 1.0);

  // --- Node attacks -------------------------------------------------------

  /// Destroys an asset (kinetic strike / permanent capture) at `when`.
  void schedule_node_kill(things::AssetId id, sim::SimTime when);

  /// Kills a uniformly random fraction of assets matching `pred` at `when`.
  void schedule_mass_kill(double fraction, sim::SimTime when,
                          std::function<bool(const things::Asset&)> pred,
                          sim::Rng rng);

  /// Kills a uniformly random `fraction` of the assets positioned inside
  /// `region` at `when` (area strike / localized capture sweep). Unlike
  /// mass_kill this row is fully declarative — no predicate closure — so a
  /// scenario-matrix cell can enumerate it from a spec alone.
  void schedule_region_kill(sim::Rect region, double fraction, sim::SimTime when,
                            sim::Rng rng);

  /// Converts an asset to adversary control at `when`: its affiliation
  /// flips to red, it stops answering probes, and its human/sensor reports
  /// become unreliable (reliability drops to `captured_reliability`).
  void schedule_capture(things::AssetId id, sim::SimTime when,
                        double captured_reliability = 0.2);

  // --- Identity attacks ---------------------------------------------------

  /// Creates `count` Sybil assets at `when`: red smartphones that claim to
  /// be blue sensor motes. Returns nothing at schedule time; created ids
  /// are appended to `sybil_ids()` when the attack fires.
  void schedule_sybil(std::size_t count, sim::SimTime when, sim::Rng rng);

  const std::vector<things::AssetId>& sybil_ids() const { return sybil_ids_; }
  const std::vector<AttackEvent>& log() const { return log_; }

  /// How many rows have fired — the schedule cursor a checkpoint carries.
  std::size_t fired_count() const;

  // --- Checkpointing ----------------------------------------------------

  std::string_view checkpoint_key() const override { return "security.attacks"; }
  /// The schedule-cursor rows, Sybil ids, and event log round-trip;
  /// restore() prefix-matches the rows against the live stack's declared
  /// schedule.
  void save(sim::WireWriter& w) const override;
  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override;

 private:
  enum class Kind {
    kJamOn, kJamOff, kBlackoutOn, kBlackoutOff,
    kNodeKill, kMassKill, kCapture, kSybil, kRegionKill,
  };

  /// One declarative schedule row. The pred closure is the only non-POD
  /// field; it is never saved — a restoring stack re-declares it through
  /// the same schedule_mass_kill call.
  struct Scheduled {
    Kind kind = Kind::kNodeKill;
    sim::SimTime when;
    sim::TagId tag = sim::kUntagged;
    things::AssetId asset = 0;                       // node_kill / capture
    things::Modality modality = things::Modality::kCamera;  // blackout
    sim::Rect region;                                // region_kill
    double fraction = 0.0;                           // mass_kill / region_kill
    double reliability = 0.2;                        // capture
    std::size_t count = 0;                           // sybil
    sim::Rng rng;                                    // mass_kill / sybil
    std::function<bool(const things::Asset&)> pred;  // mass_kill
    bool fired = false;
    sim::EventId armed = sim::kNoEvent;
  };

  void add_scheduled(Scheduled s);
  void arm(std::size_t index);
  /// Executes row `index`. Accesses schedule_ by index on every touch:
  /// destroy_asset/add_asset hooks may re-enter schedule_* and reallocate.
  void fire(std::size_t index);
  void record(std::string type, std::string detail);

  things::World& world_;
  std::vector<Scheduled> schedule_;
  std::vector<things::AssetId> sybil_ids_;
  std::vector<AttackEvent> log_;
};

}  // namespace iobt::security
