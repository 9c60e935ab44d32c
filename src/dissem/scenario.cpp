#include "dissem/scenario.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "sim/hash.h"
#include "things/mobility.h"
#include "things/population.h"

namespace iobt::dissem {

namespace {

/// Stream salts for the per-scenario Rng tree (one seed, independent
/// streams per concern).
constexpr std::uint64_t kLayoutSalt = 0xD155E301ULL;
constexpr std::uint64_t kMobilitySalt = 0xD155E302ULL;
constexpr std::uint64_t kAttackSalt = 0xD155E303ULL;
constexpr std::uint64_t kChannelSalt = 0xD155E304ULL;
constexpr std::uint64_t kWorldSalt = 0xD155E305ULL;

}  // namespace

std::string to_string(MobilityKind m) {
  switch (m) {
    case MobilityKind::kStationary: return "stationary";
    case MobilityKind::kWaypoint: return "waypoint";
    case MobilityKind::kPatrol: return "patrol";
  }
  return "unknown";
}

std::string to_string(AttackCampaign a) {
  switch (a) {
    case AttackCampaign::kNone: return "none";
    case AttackCampaign::kJamming: return "jamming";
    case AttackCampaign::kRegionStrike: return "region_strike";
    case AttackCampaign::kGatewayHunt: return "gateway_hunt";
    case AttackCampaign::kCombined: return "combined";
  }
  return "unknown";
}

std::vector<LayerSpec> ground_aerial_layers() {
  // Dense short-range ground stratum bridged by a sparse long-range aerial
  // relay tier — the minimum interesting multi-layer shape. Densities are
  // chosen so the unattacked ground mesh percolates (mean degree ~10 over
  // the default 800x800 m area) and several gateway pairs land within the
  // ground radio's 190 m (a link's reach is the min of the two radios).
  return {
      {net::kLayerGround, 60, 8, {.range_m = 190, .data_rate_bps = 1e6, .base_loss = 0.01},
       things::DeviceClass::kSensorMote, 3.0},
      {net::kLayerAerial, 14, 6, {.range_m = 420, .data_rate_bps = 4e6, .base_loss = 0.005},
       things::DeviceClass::kDrone, 11.0},
  };
}

std::vector<LayerSpec> ground_aerial_command_layers() {
  return {
      {net::kLayerGround, 60, 8, {.range_m = 190, .data_rate_bps = 1e6, .base_loss = 0.01},
       things::DeviceClass::kSensorMote, 3.0},
      {net::kLayerAerial, 14, 6, {.range_m = 420, .data_rate_bps = 4e6, .base_loss = 0.005},
       things::DeviceClass::kDrone, 11.0},
      {net::kLayerCommand, 6, 3, {.range_m = 520, .data_rate_bps = 8e6, .base_loss = 0.002},
       things::DeviceClass::kVehicle, 0.0},
  };
}

DissemScenario::DissemScenario(const DissemSpec& spec, std::uint64_t seed)
    : net(sim, net::ChannelModel(2.0, 0.2), sim::Rng(seed).child(kChannelSalt)),
      world(sim, net, spec.area, sim::Rng(seed).child(kWorldSalt)),
      attacks(world),
      dissem(sim, net, spec.gossip),
      reconfig(world),
      spec_(spec) {
  if (spec_.layers.empty()) {
    throw std::invalid_argument("DissemSpec has no layers");
  }
  build_population(seed);
  build_attacks(seed);
  world.start(sim::Duration::seconds(1));
  dissem.attach();
  // The alert originates at the first ground node (node 0 by construction).
  dissem.seed(0, sim::SimTime::seconds(spec_.seed_time_s));
}

void DissemScenario::build_population(std::uint64_t seed) {
  const sim::Rng layout = sim::Rng(seed).child(kLayoutSalt);
  const sim::Rng mobility = sim::Rng(seed).child(kMobilitySalt);
  std::uint64_t member = 0;
  for (const LayerSpec& ls : spec_.layers) {
    if (ls.gateways > ls.nodes) {
      throw std::invalid_argument("LayerSpec: more gateways than nodes");
    }
    // Gateways are spread evenly through the layer's creation order so
    // they land scattered across the area rather than clustered.
    const std::size_t stride = ls.gateways == 0 ? 0 : ls.nodes / ls.gateways;
    std::size_t made = 0;
    for (std::size_t i = 0; i < ls.nodes; ++i, ++member) {
      sim::Rng maker = layout.child(member);
      things::AssetSpec a =
          things::make_asset_template(ls.device, things::Affiliation::kBlue, maker);
      switch (spec_.mobility) {
        case MobilityKind::kStationary:
          a.mobility = nullptr;
          break;
        case MobilityKind::kWaypoint:
          a.mobility = std::make_shared<things::RandomWaypoint>(
              spec_.area, ls.speed_mps, 2.0, mobility.child(member));
          break;
        case MobilityKind::kPatrol:
          a.mobility = std::make_shared<things::GridPatrol>(
              spec_.area, 200.0, ls.speed_mps, mobility.child(member));
          break;
      }
      if (ls.speed_mps <= 0.0) a.mobility = nullptr;
      const sim::Vec2 pos = {maker.uniform(spec_.area.min.x, spec_.area.max.x),
                             maker.uniform(spec_.area.min.y, spec_.area.max.y)};
      const things::AssetId aid = world.add_asset(std::move(a), pos, ls.radio, ls.layer);
      const net::NodeId node = world.asset(aid).node;
      if (stride != 0 && i % stride == 0 && made < ls.gateways) {
        net.set_gateway(node, true);
        initial_gateways_.push_back(node);
        gateway_assets_.push_back(aid);
        ++made;
      }
    }
  }
}

void DissemScenario::build_attacks(std::uint64_t seed) {
  const double k = spec_.intensity;
  if (k <= 0.0) return;
  sim::Rng attack_rng = sim::Rng(seed).child(kAttackSalt);
  const sim::Rect& area = spec_.area;
  const double min_side = std::min(area.width(), area.height());
  const auto jam = [&](double strength) {
    // On the air before the alert is even seeded: the epidemic must fight
    // its way around (or through) the jam zone, not outrun it.
    attacks.schedule_jamming(area.center(), 0.4 * min_side,
                             sim::SimTime::seconds(spec_.seed_time_s - 2.0),
                             sim::SimTime::seconds(spec_.horizon_s * 0.8),
                             strength);
  };
  const auto hunt_gateways = [&](double fraction) {
    // Kill the leading `fraction` of the gateway list, staggered 1.5 s
    // apart. The first kill lands half a second AFTER the origin's first
    // rebroadcast (the origin is gateway 0 by construction — striking
    // sooner would decapitate the epidemic before hop one, measuring
    // nothing). From there the hunt races the spreading wave: each kill
    // exercises the reconfiguration controller while frames are in
    // flight and uninformed strata still depend on the bridge being
    // rebuilt.
    const double first_kill_s =
        spec_.seed_time_s + spec_.gossip.forward_delay.to_seconds() + 0.5;
    const auto kills = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(gateway_assets_.size())));
    for (std::size_t i = 0; i < kills && i < gateway_assets_.size(); ++i) {
      attacks.schedule_node_kill(
          gateway_assets_[i],
          sim::SimTime::seconds(first_kill_s + 1.5 * double(i)));
    }
  };
  switch (spec_.attack) {
    case AttackCampaign::kNone:
      break;
    case AttackCampaign::kJamming:
      jam(k);
      break;
    case AttackCampaign::kRegionStrike: {
      // Two sweeps over the central band while the wave is still crossing
      // it: the first thins the relay mesh ahead of the epidemic, the
      // second catches survivors mid-spread. Nodes killed before the alert
      // arrives never count as informed, which is what bends the
      // reach-vs-intensity curve.
      const sim::Rect strike{{area.min.x + 0.2 * area.width(),
                              area.min.y + 0.2 * area.height()},
                             {area.max.x - 0.2 * area.width(),
                              area.max.y - 0.2 * area.height()}};
      attacks.schedule_region_kill(strike, 0.85 * k,
                                   sim::SimTime::seconds(spec_.seed_time_s + 2.0),
                                   attack_rng);
      attacks.schedule_region_kill(strike, 0.45 * k,
                                   sim::SimTime::seconds(spec_.seed_time_s + 6.0),
                                   attack_rng);
      break;
    }
    case AttackCampaign::kGatewayHunt:
      hunt_gateways(k);
      break;
    case AttackCampaign::kCombined:
      jam(0.7 * k);
      hunt_gateways(k);
      break;
  }
}

void DissemScenario::run_to_horizon() {
  sim.run_until(sim::SimTime::seconds(spec_.horizon_s));
}

DissemOutcome DissemScenario::outcome() const {
  DissemOutcome o;
  o.nodes = net.node_count();
  o.informed = dissem.informed_count();
  o.live = world.live_asset_count();
  o.reach = dissem.reach();
  o.reach_live = dissem.reach_live();
  o.t50_s = dissem.time_to_fraction(0.5);
  o.t90_s = dissem.time_to_fraction(0.9);
  o.promotions = reconfig.promotions().size();
  std::uint64_t h = dissem.digest();
  const auto mix = [&h](std::uint64_t v) { sim::hash_combine(h, v); };
  mix(net.metrics().digest());
  mix(static_cast<std::uint64_t>(sim.now().nanos()));
  mix(o.live);
  mix(o.promotions);
  for (const ReconfigController::Promotion& p : reconfig.promotions()) {
    mix(p.lost);
    mix(p.promoted);
    mix(static_cast<std::uint64_t>(p.at.nanos()));
  }
  o.digest = h;
  return o;
}

DissemOutcome run_dissemination(const DissemSpec& spec, std::uint64_t seed) {
  DissemScenario s(spec, seed);
  s.run_to_horizon();
  return s.outcome();
}

sim::ScenarioMatrix dissem_matrix(std::uint64_t base_seed) {
  sim::ScenarioMatrix m(base_seed);
  m.add_axis("layers", {"ground_aerial", "ground_aerial_command"});
  m.add_axis("mobility", {"stationary", "waypoint", "patrol"});
  m.add_axis("attack", {"none", "jamming", "region_strike", "gateway_hunt", "combined"});
  m.add_axis("intensity", {"0.0", "0.3", "0.6", "0.9"});
  return m;
}

DissemSpec spec_for_cell(const sim::ScenarioCell& cell) {
  if (cell.choice.size() != 4) {
    throw std::invalid_argument("spec_for_cell: not a dissem_matrix cell");
  }
  DissemSpec spec;
  spec.name = cell.name;
  spec.layers = cell.choice[0] == 0 ? ground_aerial_layers()
                                    : ground_aerial_command_layers();
  spec.mobility = static_cast<MobilityKind>(cell.choice[1]);
  spec.attack = static_cast<AttackCampaign>(cell.choice[2]);
  static constexpr double kIntensities[] = {0.0, 0.3, 0.6, 0.9};
  spec.intensity = kIntensities[cell.choice[3]];
  return spec;
}

}  // namespace iobt::dissem
