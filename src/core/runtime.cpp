#include "core/runtime.h"

#include <algorithm>
#include <set>

#include "trace/trace.h"

namespace iobt::core {

namespace {
constexpr const char* kMissionReport = "mission.report";
/// Edge-of-range loss shaping exponent (see net::ChannelModel).
constexpr double kChannelEdgeExponent = 2.0;
constexpr sim::Duration kWorldTick = sim::Duration::seconds(1.0);
/// How many blue collector assets run discovery.
constexpr std::size_t kMaxCollectors = 3;
/// Mission quality window (sweeps) for the quality metric.
constexpr std::size_t kQualityWindow = 4;

/// Payload of member->sink detection reports: the noisy estimated
/// positions drive track fusion; the ground-truth ids ride along for
/// scoring only.
struct DetectionReport {
  things::AssetId member = 0;
  std::vector<things::TargetId> targets;
  std::vector<sim::Vec2> positions;
  /// Coarse per-report noise estimate: long-range IoBT sensors are noisy
  /// (position error grows toward the edge of range; see things/sensors).
  double measurement_sigma = 15.0;
};
}  // namespace

Runtime::Runtime(RuntimeConfig config) : cfg_(config) {
  sim::Rng root(cfg_.seed);
  net_ = std::make_unique<net::Network>(
      sim_, net::ChannelModel(kChannelEdgeExponent, cfg_.channel_max_edge_loss),
      root.child("net"));
  world_ = std::make_unique<things::World>(sim_, *net_, cfg_.area, root.child("world"));
  disp_ = std::make_unique<net::Dispatcher>(*net_);
  attacks_ = std::make_unique<security::AttackInjector>(*world_);
}

Runtime::~Runtime() = default;

std::vector<things::AssetId> Runtime::populate(const things::PopulationConfig& cfg) {
  sim::Rng pop_rng = sim::Rng(cfg_.seed).child("population");
  return things::build_population(*world_, cfg, pop_rng);
}

void Runtime::start(discovery::DiscoveryConfig discovery_cfg) {
  if (started_) return;
  started_ = true;
  world_->start(kWorldTick);

  // Collectors: blue assets with an RF-spectrum sensor or big fixed
  // infrastructure, capped at kMaxCollectors.
  std::vector<things::AssetId> collectors;
  for (const auto& a : world_->assets()) {
    if (a.affiliation != things::Affiliation::kBlue) continue;
    const bool eligible = a.has_sensor(things::Modality::kRfSpectrum) ||
                          a.device_class == things::DeviceClass::kEdgeServer ||
                          a.device_class == things::DeviceClass::kVehicle;
    if (!eligible) continue;
    collectors.push_back(a.id);
    if (collectors.size() == kMaxCollectors) break;
  }
  if (collectors.empty() && world_->asset_count() > 0) {
    collectors.push_back(world_->assets().front().id);
  }
  if (!collectors.empty()) {
    discovery_ = std::make_unique<discovery::DiscoveryService>(*world_, *disp_,
                                                               collectors, discovery_cfg);
    discovery_->start();
    discovery::CharacterizationConfig ccfg;
    ccfg.challenge_period = sim::Duration::seconds(5.0);
    ccfg.challenges_per_tick = 4;  // trust must accrue on mission timescales
    characterization_ = std::make_unique<discovery::CharacterizationService>(
        *world_, *disp_, *discovery_, trust_, collectors.front(), ccfg);
    characterization_->start();
  }
}

std::optional<things::AssetId> Runtime::pick_sink() const {
  // The sink is the blue asset with the most compute (edge server in any
  // realistic population).
  std::optional<things::AssetId> best;
  double best_flops = -1.0;
  for (const auto& a : world_->assets()) {
    if (a.affiliation != things::Affiliation::kBlue || !world_->asset_live(a.id)) {
      continue;
    }
    if (a.compute.flops > best_flops) {
      best_flops = a.compute.flops;
      best = a.id;
    }
  }
  return best;
}

int Runtime::hops_to_sink(net::NodeId from, net::NodeId sink) const {
  const std::uint64_t epoch = net_->topology_epoch();
  if (!sink_hops_valid_ || sink_hops_sink_ != sink || sink_hops_epoch_ != epoch) {
    sink_hops_ = net_->topology_view().hop_distances(sink);
    sink_hops_sink_ = sink;
    sink_hops_epoch_ = epoch;
    sink_hops_valid_ = true;
  }
  return from < sink_hops_.size() ? sink_hops_[from] : -1;
}

std::vector<synthesis::Candidate> Runtime::recruitment_pool(const Mission& m) const {
  if (!m.options.use_directory || !discovery_) {
    auto pool = synthesis::candidates_from_world(*world_, &trust_);
    if (m.options.exclusive) {
      std::erase_if(pool, [this](const synthesis::Candidate& c) {
        return reserved_.count(c.asset) > 0;
      });
    }
    return pool;
  }
  // Operational path: only what discovery knows, described by its claims,
  // weighted by earned trust.
  std::vector<synthesis::Candidate> out;
  for (const auto& [id, e] : discovery_->directory().entries()) {
    if (e.standing() == discovery::Standing::kSuspect) continue;
    if (!world_->asset_live(id)) continue;  // liveness is observable (probes)
    if (m.options.exclusive && reserved_.count(id)) continue;  // held elsewhere
    synthesis::Candidate c;
    c.asset = id;
    c.position = e.last_position;
    c.sensors = e.claimed_sensors;
    const things::Asset& truth = world_->asset(id);
    // Actuators/compute are advertised truthfully by cooperative devices;
    // the directory stores sensing claims, so take the rest from the
    // device's own advertisement channel (== its real profile here).
    c.actuators = truth.actuators;
    c.compute = truth.compute;
    c.trust = trust_.score(id);
    c.certified = e.claimed_class.has_value() &&
                  *e.claimed_class != things::DeviceClass::kSmartphone &&
                  *e.claimed_class != things::DeviceClass::kHuman;
    c.cost = 1.0;
    out.push_back(std::move(c));
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(out.begin(), out.end(),
            [](const synthesis::Candidate& a, const synthesis::Candidate& b) {
              return a.asset < b.asset;
            });
  return out;
}

std::optional<MissionId> Runtime::launch_mission(const synthesis::Goal& goal,
                                                 MissionOptions options) {
  const auto sink = pick_sink();
  if (!sink) return std::nullopt;

  auto m = std::make_unique<Mission>();
  m->goal = goal;
  m->spec = synthesis::derive_spec(goal);
  m->options = options;
  m->sink = *sink;

  auto pool = recruitment_pool(*m);
  const net::NodeId sink_node = world_->asset(*sink).node;
  auto pool_copy = pool;  // composer owns its candidates; keep for hops fn
  m->composer = std::make_unique<synthesis::Composer>(
      m->spec, std::move(pool),
      [this, pool_copy, sink_node](std::size_t i) {
        return hops_to_sink(world_->asset(pool_copy[i].asset).node, sink_node);
      });
  m->composite = m->composer->compose(options.solver);

  // Modality preference: the first sensing requirement's modality first,
  // then every other modality present among members (the redundancy
  // synthesis provisioned).
  std::vector<things::Modality> ranked;
  if (!m->spec.sensing.empty()) ranked.push_back(m->spec.sensing.front().modality);
  for (const auto aid : m->composite.member_assets) {
    for (const auto& s : world_->asset(aid).sensors) {
      if (std::find(ranked.begin(), ranked.end(), s.modality) == ranked.end()) {
        ranked.push_back(s.modality);
      }
    }
  }
  if (ranked.empty()) ranked.push_back(things::Modality::kCamera);
  m->switcher = std::make_unique<adapt::ModalitySwitcher>(ranked);

  // Plan the mission's analytics dataflow (goals -> means, functional
  // half): sensing members are the sources, the sink runs the display, and
  // the heavy operators land wherever member compute allows. The resulting
  // critical-path latency is part of the mission's assurance story.
  {
    std::size_t sensing_members = 0;
    flow::PlacementProblem prob;
    for (const auto aid : m->composite.member_assets) {
      if (!world_->asset(aid).sensors.empty() && sensing_members < 8) {
        ++sensing_members;
      }
    }
    if (sensing_members > 0) {
      prob.graph = flow::make_tracking_service(sensing_members, 0.5);
      std::vector<net::NodeId> host_nodes;
      std::size_t pinned_sources = 0;
      for (const auto aid : m->composite.member_assets) {
        const auto& asset = world_->asset(aid);
        prob.hosts.push_back({static_cast<flow::HostId>(prob.hosts.size()),
                              asset.compute.flops});
        host_nodes.push_back(asset.node);
        if (!asset.sensors.empty() && pinned_sources < sensing_members) {
          prob.pinned.push_back(
              {static_cast<flow::OperatorId>(pinned_sources),
               static_cast<flow::HostId>(prob.hosts.size() - 1)});
          ++pinned_sources;
        }
      }
      // The sink host (mission sink asset) joins last.
      prob.hosts.push_back({static_cast<flow::HostId>(prob.hosts.size()),
                            world_->asset(*sink).compute.flops});
      host_nodes.push_back(sink_node);
      prob.pinned.push_back(
          {static_cast<flow::OperatorId>(sensing_members + 3),
           static_cast<flow::HostId>(prob.hosts.size() - 1)});
      prob.hops = flow::host_hops_from_topology(net_->topology_view(), host_nodes);
      m->service = flow::place(prob);
    }
  }

  // Sink-side report collector.
  const MissionId id = missions_.size();
  disp_->on(sink_node, std::string(kMissionReport) + "." + std::to_string(id),
            [this, id](const net::Message& msg) {
              const auto& rep = std::any_cast<const DetectionReport&>(msg.payload);
              Mission& mm = *missions_[id];
              if (mm.window.empty()) return;
              auto& cur = mm.window.back();
              cur.insert(cur.end(), rep.targets.begin(), rep.targets.end());
              // Queue positions for the next tracker step, weighted by the
              // reporting member's earned trust.
              const double trust = trust_.score(rep.member);
              for (const auto& p : rep.positions) {
                mm.pending_detections.push_back(
                    {p, rep.measurement_sigma, trust});
              }
            });

  if (options.exclusive) {
    for (const auto aid : m->composite.member_assets) reserved_.insert(aid);
  }
  missions_.push_back(std::move(m));

  // Execution loop.
  sim_.schedule_every(
      options.sense_period,
      [this, id]() {
        mission_sweep(id);
        return true;
      },
      sim_.intern("mission.sweep"));
  return id;
}

void Runtime::mission_sweep(MissionId id) {
  // The sweep is the runtime's adaptive loop: sense, score quality, and
  // run the two reflexes (modality switch, repair). One span per sweep.
  trace::Tracer& tr = sim_.tracer();
  trace::Span sweep_span(tr.enabled() ? &tr : nullptr, "adapt.mission.sweep",
                         "adapt");
  Mission& m = *missions_[id];
  m.window.emplace_back();
  if (m.window.size() > kQualityWindow) m.window.erase(m.window.begin());
  ++m.sweep_index;

  const things::Modality modality = m.switcher->current();
  const net::NodeId sink_node = world_->asset(m.sink).node;

  double sweep_detections = 0.0;
  for (const auto aid : m.composite.member_assets) {
    if (!world_->asset_live(aid)) continue;
    const auto obs = world_->sense(aid, modality);
    if (obs.empty()) continue;
    DetectionReport rep;
    rep.member = aid;
    for (const auto& o : obs) {
      if (o.truth_target) {
        rep.targets.push_back(*o.truth_target);
        rep.positions.push_back(o.position);
      }
    }
    sweep_detections += static_cast<double>(rep.targets.size());
    net::Message msg;
    msg.kind = std::string(kMissionReport) + "." + std::to_string(id);
    msg.size_bytes = 32 + 8 * obs.size();
    msg.payload = std::move(rep);
    net_->route_and_send(world_->asset(aid).node, sink_node, std::move(msg));
  }

  // Reflex 1: modality switching on yield collapse. The switcher can only
  // compare modalities it has yield data for, so every sweep we also run
  // one low-duty exploration sweep on a rotating alternate modality
  // (feeding the switcher only — no reports, no bandwidth).
  if (m.options.reflexes) {
    const auto alternates = m.switcher->alternates();
    if (!alternates.empty()) {
      const things::Modality probe =
          alternates[m.sweep_index % alternates.size()];
      double probe_detections = 0.0;
      for (const auto aid : m.composite.member_assets) {
        if (!world_->asset_live(aid)) continue;
        for (const auto& o : world_->sense(aid, probe)) {
          if (o.truth_target) probe_detections += 1.0;
        }
      }
      m.switcher->feed(probe, probe_detections);
    }
    m.switcher->feed(modality, sweep_detections);
  }

  // Quality metric: unique in-area targets reported to the sink over the
  // window vs active in-area targets. Lags one sweep (reports in flight).
  std::set<things::TargetId> reported;
  for (const auto& sweep : m.window) {
    reported.insert(sweep.begin(), sweep.end());
  }
  std::size_t in_area = 0, found = 0;
  for (const auto& t : world_->targets()) {
    if (!t.active || !m.goal.area.contains(t.position)) continue;
    ++in_area;
    if (reported.count(t.id)) ++found;
  }
  m.quality = in_area == 0 ? 1.0
                           : static_cast<double>(found) / static_cast<double>(in_area);

  // Track fusion: step the sink-side tracker with everything that arrived
  // since the last sweep.
  m.tracker.step(m.options.sense_period.to_seconds(), m.pending_detections);
  m.pending_detections.clear();

  // Reflex 2: re-synthesis when members died.
  if (m.options.reflexes) maybe_repair(id);
}

void Runtime::maybe_repair(MissionId id) {
  Mission& m = *missions_[id];
  bool member_down = false;
  for (const auto aid : m.composite.member_assets) {
    member_down |= !world_->asset_live(aid);
  }
  if (!member_down) return;
  // Exclude EVERY currently-dead candidate, not just dead members —
  // otherwise repair happily recruits other casualties and the mission
  // thrashes through a graveyard one sweep at a time.
  std::vector<std::uint32_t> dead;
  for (const auto& c : m.composer->candidates()) {
    if (!world_->asset_live(c.asset)) dead.push_back(c.asset);
  }
  if (m.options.exclusive) {
    for (const auto aid : m.composite.member_assets) reserved_.erase(aid);
  }
  {
    // Reflex 2 on the timeline: the adapt-layer span wraps the synthesis
    // repair span it triggers.
    trace::Tracer& tr = sim_.tracer();
    trace::Span span(tr.enabled() ? &tr : nullptr, "adapt.mission.repair",
                     "adapt");
    m.composite = m.composer->repair(m.composite, dead);
  }
  if (m.options.exclusive) {
    for (const auto aid : m.composite.member_assets) reserved_.insert(aid);
  }
  ++m.repairs;
}

MissionStatus Runtime::mission_status(MissionId id) const {
  const Mission& m = *missions_.at(id);
  MissionStatus s;
  s.name = m.spec.name;
  s.feasible = m.composite.assurance.meets_spec;
  s.member_count = m.composite.member_assets.size();
  s.assurance = m.composite.assurance;
  s.quality = m.quality;
  s.active_modality = m.switcher->current();
  s.modality_switches = m.switcher->switch_count();
  s.repairs = m.repairs;
  s.service_latency_s = m.service.critical_path_latency_s;
  s.service_placed = m.service.feasible;
  s.confirmed_tracks = m.tracker.confirmed_count();
  std::vector<sim::Vec2> truth;
  for (const auto& t : world_->targets()) {
    if (t.active && m.goal.area.contains(t.position)) truth.push_back(t.position);
  }
  s.tracking_error_m = truth.empty() ? 0.0 : m.tracker.tracking_error(truth);
  return s;
}

}  // namespace iobt::core
