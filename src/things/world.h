#pragma once
// The World: ground truth for one scenario.
//
// Owns the asset population and the targets (entities missions want to
// track/protect), advances mobility on a fixed tick, mirrors positions
// into the Network, drains idle energy, and takes depleted or destroyed
// assets offline. Algorithms observe the world only through the network
// and through sense() — never by reading ground truth.

#include <functional>
#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/checkpoint.h"
#include "sim/geometry.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "things/asset.h"
#include "things/sensors.h"

namespace iobt::things {

/// Environmental sensing disruption (smoke, dust, weather, optical
/// dazzling): while active, sensors of `modality` whose platform is inside
/// `region` lose `severity` of their quality. This is the physical-layer
/// counterpart of RF jamming — §IV-B's "smoke or other phenomena render
/// visual tracking unreliable".
struct SensingDisruption {
  Modality modality = Modality::kCamera;
  sim::Rect region;
  sim::SimTime start;
  sim::SimTime end = sim::SimTime::max();
  /// Fraction of sensor quality removed, in [0, 1].
  double severity = 1.0;

  bool active_at(sim::SimTime t) const { return t >= start && t < end; }
};

/// A ground-truth entity of interest (insurgent group, civilian cluster,
/// vehicle convoy, hazard) that sensors can detect.
struct Target {
  TargetId id = 0;
  sim::Vec2 position;
  std::shared_ptr<MobilityModel> mobility;
  /// Labels targets for mission semantics ("civilian", "hostile", ...).
  std::string kind;
  bool active = true;
};

class World : public sim::Checkpointable {
 public:
  World(sim::Simulator& simulator, net::Network& network, sim::Rect area, sim::Rng rng);
  ~World() override;

  sim::Rect area() const { return area_; }
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return net_; }
  const net::Network& network() const { return net_; }

  // --- Population -------------------------------------------------------

  /// Registers an asset from its spec: creates its network endpoint at
  /// `position` with `radio` on network `layer` (ground by default, so
  /// flat-world callers never mention layers), assigns ids, moves the
  /// spec's hot state (energy, mobility; assets start alive) into the SoA
  /// slabs, and returns the AssetId. The stored record's `node` and `id`
  /// fields are filled in.
  AssetId add_asset(AssetSpec spec, sim::Vec2 position, net::RadioProfile radio,
                    net::LayerId layer = net::kLayerGround);

  /// The cold per-asset record (identity, capabilities, ground truth).
  /// Hot per-tick state lives in slabs behind asset_alive / energy /
  /// mobility below.
  Asset& asset(AssetId id) { return assets_.at(id); }
  const Asset& asset(AssetId id) const { return assets_.at(id); }
  std::size_t asset_count() const { return assets_.size(); }
  const std::vector<Asset>& assets() const { return assets_; }

  // --- Hot state slabs (parallel to assets_ by AssetId) ------------------

  /// Raw liveness flag: false once destroyed. See asset_live for the
  /// "alive AND not energy-depleted" predicate services use.
  bool asset_alive(AssetId id) const { return alive_.at(id) != 0; }
  EnergyModel& energy(AssetId id) { return energy_.at(id); }
  const EnergyModel& energy(AssetId id) const { return energy_.at(id); }
  const std::shared_ptr<MobilityModel>& mobility(AssetId id) const {
    return mobility_.at(id);
  }

  sim::Vec2 asset_position(AssetId id) const { return net_.position(assets_.at(id).node); }

  /// The asset owning a network endpoint (every node is created by
  /// add_asset, so the mapping is total for valid ids).
  AssetId asset_of_node(net::NodeId node) const { return node_to_asset_.at(node); }

  /// Kills an asset (adversary capture/strike or energy depletion): takes
  /// the network node down and marks it dead. Fires on_asset_down hooks.
  void destroy_asset(AssetId id);
  /// Live = alive and energy not depleted.
  bool asset_live(AssetId id) const;
  std::size_t live_asset_count() const;

  /// Hook invoked whenever an asset goes down (failure, attack, energy).
  void on_asset_down(std::function<void(AssetId)> fn) {
    down_hooks_.push_back(std::move(fn));
  }

  /// Hook invoked whenever an asset is added — services use this to
  /// install firmware on late arrivals (e.g. Sybils injected mid-run).
  void on_asset_added(std::function<void(AssetId)> fn) {
    added_hooks_.push_back(std::move(fn));
  }

  // --- Targets ----------------------------------------------------------

  TargetId add_target(sim::Vec2 position, std::shared_ptr<MobilityModel> mobility,
                      std::string kind);
  Target& target(TargetId id) { return targets_.at(id); }
  const Target& target(TargetId id) const { return targets_.at(id); }
  const std::vector<Target>& targets() const { return targets_; }
  std::vector<std::pair<TargetId, sim::Vec2>> active_target_positions() const;

  // --- Simulation loop --------------------------------------------------

  /// Starts the mobility/energy tick (default 1 s of virtual time).
  void start(sim::Duration tick = sim::Duration::seconds(1.0));

  /// One sensing sweep by `asset_id` with its `modality` sensor. Returns
  /// empty if the asset is down or lacks the modality. Drains energy.
  /// Active sensing disruptions degrade the effective sensor quality.
  std::vector<Observation> sense(AssetId asset_id, Modality modality);

  /// Registers an environmental sensing disruption (smoke, weather, ...).
  void add_sensing_disruption(SensingDisruption d) {
    disruptions_.push_back(d);
  }
  const std::vector<SensingDisruption>& sensing_disruptions() const {
    return disruptions_;
  }

  /// All observations a full sweep over every live blue asset produces.
  std::vector<Observation> sense_all(Modality modality);

  sim::Rng& rng() { return rng_; }

  // --- Checkpointing ----------------------------------------------------
  // Model state (cold asset records, hot slabs with their mobility models,
  // targets, disruptions, node index, rng, tick cursor) round-trips through
  // the Snapshot. Mobility models cross it through an alias table spanning
  // assets AND targets, so pointer sharing — which is state: two slots on
  // one model share one Rng stream — survives the round trip. The
  // down/added hooks do NOT — they belong to the live service stack, and
  // restore() never fires them (the metrics/service state those hooks
  // produced is restored by the services' own participants).

  std::string_view checkpoint_key() const override { return "things.world"; }
  void save(sim::WireWriter& w) const override;
  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override;

 private:
  void install_transmit_hook();
  void arm_tick();
  void run_tick();
  void tick(double dt_s);

  sim::Simulator& sim_;
  net::Network& net_;
  sim::Rect area_;
  sim::Rng rng_;
  std::vector<Asset> assets_;
  /// Hot per-tick state as structure-of-arrays slabs parallel to assets_:
  /// the tick sweep (liveness check, idle drain, depletion test, mobility
  /// step) walks flat field arrays instead of striding over full records,
  /// which is what keeps a 100k+ asset world inside cache.
  std::vector<std::uint8_t> alive_;  // 0/1; vector<bool> costs a shift per access
  std::vector<EnergyModel> energy_;
  std::vector<std::shared_ptr<MobilityModel>> mobility_;
  /// node -> owning asset, maintained by add_asset (the transmit-energy
  /// hook and node-keyed queries are O(1), including for late arrivals).
  std::vector<AssetId> node_to_asset_;
  std::vector<Target> targets_;
  std::vector<SensingDisruption> disruptions_;
  std::vector<std::function<void(AssetId)>> down_hooks_;
  std::vector<std::function<void(AssetId)>> added_hooks_;
  bool started_ = false;
  /// Mobility/energy tick as a self-managed schedule_at chain (instead of
  /// schedule_every) so the checkpoint layer can cancel and re-arm it.
  sim::Duration tick_period_;
  sim::SimTime next_tick_at_;
  sim::EventId tick_event_ = sim::kNoEvent;
  sim::TagId tick_tag_ = sim::kUntagged;
};

}  // namespace iobt::things
