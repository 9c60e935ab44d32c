#pragma once
// The IoBT runtime: the paper's Figure-1 loop in one object.
//
//   discover -> characterize -> synthesize (commander's intent in, composite
//   asset + assurance out) -> execute with adaptive reflexes (modality
//   switching, re-synthesis on loss) -> learn (trust refinement feeding the
//   next synthesis).
//
// Runtime owns the simulation substrate (kernel, network, world), the
// shared services (discovery, characterization, trust), and the mission
// lifecycle. It is the public API the examples and the end-to-end bench
// (E12) program against.
//
// Checkpointing: the substrate (Network, World, AttackInjector) registers
// with the kernel's CheckpointRegistry; the services are scenario-layer
// closures over it and are NOT participants. To branch a Runtime-driven
// scenario, build a fresh Runtime with the same config (the same scenario
// code path), then restore the snapshot into it — the rebuild-then-restore
// pattern of DESIGN.md §S3. Service-internal state that must survive a
// restore belongs in a service-owned Checkpointable. The services' messages
// carry std::any payloads, which have no wire form: Network::save throws
// while one is in flight, so a running mission stack cannot be saved yet.

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flow/placement.h"
#include "track/tracker.h"
#include "adapt/perception.h"
#include "discovery/characterize.h"
#include "discovery/service.h"
#include "net/dispatcher.h"
#include "security/attacks.h"
#include "security/trust.h"
#include "synthesis/composer.h"
#include "things/population.h"
#include "things/world.h"

namespace iobt::core {

struct RuntimeConfig {
  sim::Rect area{{0, 0}, {2000, 2000}};
  std::uint64_t seed = 1;
  /// Largest edge-of-range loss (see net::ChannelModel).
  double channel_max_edge_loss = 0.25;
};

using MissionId = std::size_t;

struct MissionStatus {
  std::string name;
  bool feasible = false;
  std::size_t member_count = 0;
  synthesis::Assurance assurance;
  /// Sliding-window mission quality: fraction of active in-area targets
  /// detected and reported to the sink in the last window.
  double quality = 0.0;
  things::Modality active_modality = things::Modality::kCamera;
  std::size_t modality_switches = 0;
  std::size_t repairs = 0;
  /// Analytics service plan: critical-path latency of the mission's
  /// detection-processing dataflow placed onto member compute (flow/),
  /// and whether a feasible placement exists at all.
  double service_latency_s = 0.0;
  bool service_placed = false;
  /// Track-level picture maintained by the sink-side fusion engine.
  std::size_t confirmed_tracks = 0;
  /// Mean distance from each in-area ground-truth target to its nearest
  /// confirmed track (m; capped at 100). 0 when no targets in area.
  double tracking_error_m = 0.0;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- Substrate access ---------------------------------------------------

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *net_; }
  things::World& world() { return *world_; }
  net::Dispatcher& dispatcher() { return *disp_; }
  security::TrustRegistry& trust() { return trust_; }
  security::AttackInjector& attacks() { return *attacks_; }
  discovery::DiscoveryService* discovery() { return discovery_.get(); }

  // --- Setup ----------------------------------------------------------------

  /// Builds the asset population.
  std::vector<things::AssetId> populate(const things::PopulationConfig& cfg);

  /// Starts world ticks, discovery, and characterization. Call after
  /// populate() and before launching missions.
  void start(discovery::DiscoveryConfig discovery_cfg = {});

  // --- Mission lifecycle ------------------------------------------------------

  struct MissionOptions {
    synthesis::Solver solver = synthesis::Solver::kGreedy;
    /// Recruit from the discovery directory (operational) or from ground
    /// truth (oracle; for ablations).
    bool use_directory = true;
    /// Enable the reflex layer (modality switching + re-synthesis).
    bool reflexes = true;
    /// Exclusive recruitment: members are reserved for this mission and
    /// invisible to later launches (§II: multiple concurrent missions
    /// "possibly competing for resources"). Non-exclusive missions share.
    bool exclusive = true;
    sim::Duration sense_period = sim::Duration::seconds(5.0);
  };

  /// Synthesizes a composite for `goal` and starts executing it. Returns
  /// nullopt if no sink asset exists (empty population).
  std::optional<MissionId> launch_mission(const synthesis::Goal& goal,
                                          MissionOptions options);
  std::optional<MissionId> launch_mission(const synthesis::Goal& goal) {
    return launch_mission(goal, MissionOptions{});
  }

  MissionStatus mission_status(MissionId id) const;
  std::size_t mission_count() const { return missions_.size(); }

  /// Advances virtual time.
  void run_for(sim::Duration d) { sim_.run_for(d); }
  void run_until(sim::SimTime t) { sim_.run_until(t); }

 private:
  struct Mission {
    synthesis::Goal goal;
    synthesis::MissionSpec spec;
    MissionOptions options;
    std::unique_ptr<synthesis::Composer> composer;
    synthesis::Composite composite;
    std::unique_ptr<adapt::ModalitySwitcher> switcher;
    things::AssetId sink = 0;
    /// Sink-side fusion: detections (positions + source trust) feed a
    /// multi-target tracker stepped once per sweep.
    track::MultiTargetTracker tracker;
    std::vector<track::Detection> pending_detections;
    flow::Placement service;
    // Quality tracking: per-sweep sets of detected target ids arriving at
    // the sink.
    std::vector<std::vector<things::TargetId>> window;
    double quality = 0.0;
    std::size_t repairs = 0;
    std::size_t sweep_index = 0;
  };

  void mission_sweep(MissionId id);
  void maybe_repair(MissionId id);
  std::optional<things::AssetId> pick_sink() const;
  std::vector<synthesis::Candidate> recruitment_pool(const Mission& m) const;
  /// Hop count from `from` to `sink` on the current connectivity graph.
  /// The full hop-distance vector is cached keyed on (sink, topology
  /// epoch), so sorting a recruitment pool costs one BFS instead of one
  /// per candidate; any topology change invalidates via the epoch.
  int hops_to_sink(net::NodeId from, net::NodeId sink) const;

  RuntimeConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<things::World> world_;
  std::unique_ptr<net::Dispatcher> disp_;
  security::TrustRegistry trust_;
  std::unique_ptr<security::AttackInjector> attacks_;
  std::unique_ptr<discovery::DiscoveryService> discovery_;
  std::unique_ptr<discovery::CharacterizationService> characterization_;
  std::vector<std::unique_ptr<Mission>> missions_;
  /// Assets currently held by exclusive missions.
  std::set<things::AssetId> reserved_;
  /// hops_to_sink cache: BFS distances from sink_hops_sink_, valid while
  /// the network's topology epoch stays at sink_hops_epoch_.
  mutable std::vector<int> sink_hops_;
  mutable net::NodeId sink_hops_sink_ = 0;
  mutable std::uint64_t sink_hops_epoch_ = 0;
  mutable bool sink_hops_valid_ = false;
  bool started_ = false;
};

}  // namespace iobt::core
