#include "things/world.h"

#include <cassert>
#include <map>

#include "sim/wire.h"

namespace iobt::things {

World::World(sim::Simulator& simulator, net::Network& network, sim::Rect area,
             sim::Rng rng)
    : sim_(simulator), net_(network), area_(area), rng_(rng) {
  tick_tag_ = sim_.intern("world.tick");
  sim_.checkpoint().register_participant(this);
}

World::~World() {
  sim_.cancel(tick_event_);
  sim_.checkpoint().unregister(this);
}

AssetId World::add_asset(AssetSpec spec, sim::Vec2 position, net::RadioProfile radio,
                         net::LayerId layer) {
  const auto id = static_cast<AssetId>(assets_.size());
  spec.id = id;
  spec.node = net_.add_node(position, radio, layer);
  // Keep the node->asset index current for every arrival, not just the
  // population present at start(): assets recruited mid-run must pay
  // transmit energy too.
  if (node_to_asset_.size() <= spec.node) node_to_asset_.resize(spec.node + 1, 0);
  node_to_asset_[spec.node] = id;
  // Hot state peels off into the slabs; the cold record is the Asset
  // subobject that remains.
  alive_.push_back(1);
  energy_.push_back(spec.energy);
  mobility_.push_back(std::move(spec.mobility));
  assets_.push_back(std::move(static_cast<Asset&>(spec)));
  // Hooks may register further hooks (a service bootstrapping another) and
  // reallocate the vector: index with a snapshotted count, never iterators.
  const std::size_t hook_count = added_hooks_.size();
  for (std::size_t h = 0; h < hook_count; ++h) added_hooks_[h](id);
  return id;
}

void World::destroy_asset(AssetId id) {
  // Idempotence guard: overlapping attacks (node_kill + mass_kill on the
  // same asset) and re-entrant kills from down-hooks fire the hooks once.
  if (!alive_.at(id)) return;
  alive_[id] = 0;
  net_.set_node_up(assets_[id].node, false);
  // Down-hooks may destroy further assets or add hooks; snapshot the count
  // and index (same reasoning as add_asset).
  const std::size_t hook_count = down_hooks_.size();
  for (std::size_t h = 0; h < hook_count; ++h) down_hooks_[h](id);
}

bool World::asset_live(AssetId id) const {
  return alive_.at(id) != 0 && !energy_[id].depleted();
}

std::size_t World::live_asset_count() const {
  // A pure slab sweep: two flat arrays, no cold-record striding.
  std::size_t n = 0;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i] && !energy_[i].depleted()) ++n;
  }
  return n;
}

TargetId World::add_target(sim::Vec2 position, std::shared_ptr<MobilityModel> mobility,
                           std::string kind) {
  const auto id = static_cast<TargetId>(targets_.size());
  targets_.push_back(Target{id, position, std::move(mobility), std::move(kind), true});
  return id;
}

std::vector<std::pair<TargetId, sim::Vec2>> World::active_target_positions() const {
  std::vector<std::pair<TargetId, sim::Vec2>> out;
  out.reserve(targets_.size());
  for (const Target& t : targets_) {
    if (t.active) out.push_back({t.id, t.position});
  }
  return out;
}

void World::install_transmit_hook() {
  // Charge transmit energy to the owning asset, via the node->asset index
  // (maintained by add_asset, so late arrivals are covered) — the
  // per-frame hook is O(1).
  net_.set_transmit_hook([this](net::NodeId node, std::size_t bytes) {
    if (node < node_to_asset_.size()) {
      energy_[node_to_asset_[node]].drain_tx(bytes);
    }
  });
}

void World::start(sim::Duration period) {
  assert(!started_ && "World::start called twice");
  started_ = true;
  install_transmit_hook();
  tick_period_ = period;
  next_tick_at_ = sim_.now() + period;
  arm_tick();
}

void World::arm_tick() {
  tick_event_ = sim_.schedule_at(next_tick_at_, [this] { run_tick(); }, tick_tag_);
}

void World::run_tick() {
  // Body first, then re-arm — the same seq ordering schedule_every gave:
  // everything the tick schedules precedes the next tick's event.
  tick_event_ = sim::kNoEvent;
  tick(tick_period_.to_seconds());
  next_tick_at_ = next_tick_at_ + tick_period_;
  arm_tick();
}

void World::tick(double dt_s) {
  // destroy_asset fires down-hooks that may add_asset (recruit a
  // replacement) and reallocate assets_, so never hold a reference across
  // it: iterate by index and re-fetch. The count is snapshotted so assets
  // recruited mid-tick start ticking on the next tick.
  // The hot sweep runs on the slabs: liveness + energy are flat arrays,
  // and the cold record is only touched for its node id when a mobile
  // asset actually moves.
  const std::size_t count = assets_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (!alive_[i]) continue;
    energy_[i].drain_idle(dt_s);
    if (energy_[i].depleted()) {
      destroy_asset(static_cast<AssetId>(i));
      continue;
    }
    if (mobility_[i]) {
      const net::NodeId node = assets_[i].node;
      const sim::Vec2 from = net_.position(node);
      const sim::Vec2 to = area_.clamp(mobility_[i]->step(from, dt_s));
      if (!(to == from)) net_.set_position(node, to);
    }
  }
  for (Target& t : targets_) {
    if (t.active && t.mobility) t.position = area_.clamp(t.mobility->step(t.position, dt_s));
  }
}

std::vector<Observation> World::sense(AssetId asset_id, Modality modality) {
  Asset& a = assets_.at(asset_id);
  if (!asset_live(asset_id)) return {};
  const SenseCapability* cap = a.sensor(modality);
  if (!cap) return {};
  energy_[asset_id].drain_sense();
  sim::Rng sensor_rng = rng_.child(0xABCD0000ULL + asset_id).child(
      static_cast<std::uint64_t>(sim_.now().nanos()));
  const sim::Vec2 at = net_.position(a.node);
  // Environmental disruptions degrade the effective sensor quality while
  // the platform sits inside an affected region.
  SenseCapability effective = *cap;
  for (const auto& d : disruptions_) {
    if (d.modality == modality && d.active_at(sim_.now()) && d.region.contains(at)) {
      effective.quality *= (1.0 - d.severity);
    }
  }
  return sense_targets(a, effective, at, active_target_positions(), sim_.now(),
                       area_, sensor_rng);
}

std::vector<Observation> World::sense_all(Modality modality) {
  std::vector<Observation> out;
  for (const Asset& a : assets_) {
    if (a.affiliation != Affiliation::kBlue) continue;
    auto obs = sense(a.id, modality);
    out.insert(out.end(), obs.begin(), obs.end());
  }
  return out;
}

// --- Wire persistence ------------------------------------------------------

namespace {

void encode_asset(sim::WireWriter& w, const Asset& a) {
  w.u64(a.id)
      .u64(static_cast<std::uint64_t>(a.device_class))
      .u64(static_cast<std::uint64_t>(a.affiliation))
      .u64(a.node);
  w.u64(a.sensors.size());
  for (const SenseCapability& s : a.sensors) {
    w.u64(static_cast<std::uint64_t>(s.modality))
        .f64(s.range_m)
        .f64(s.quality)
        .f64(s.false_positive_rate);
  }
  w.u64(a.actuators.size());
  for (const ActuateCapability& ac : a.actuators) {
    w.u64(static_cast<std::uint64_t>(ac.kind)).f64(ac.range_m);
  }
  w.f64(a.compute.flops).f64(a.compute.memory_bytes).f64(a.compute.storage_bytes);
  w.f64(a.emissions.beacon_period_s)
      .boolean(a.emissions.responds_to_probe)
      .f64(a.emissions.side_channel_rate_hz);
  w.f64(a.report_reliability);
}

/// Reads a u64 and range-checks it against a cardinality: an enum's, or
/// the restored network's node count for a node id.
bool decode_enum(sim::WireReader& r, std::uint64_t limit, std::uint64_t& out) {
  out = r.u64();
  return r.ok() && out < limit;
}

/// The asset in slot `index`: its id must be the slot, and its node an
/// endpoint of a network of `nodes` nodes.
bool decode_asset(sim::WireReader& r, Asset& a, std::size_t index,
                  std::size_t nodes) {
  std::uint64_t device = 0, affiliation = 0, node = 0;
  if (r.u64() != index || !decode_enum(r, kDeviceClassCount, device) ||
      !decode_enum(r, 3, affiliation) || !decode_enum(r, nodes, node)) {
    return false;
  }
  a.id = static_cast<AssetId>(index);
  a.device_class = static_cast<DeviceClass>(device);
  a.affiliation = static_cast<Affiliation>(affiliation);
  a.node = static_cast<net::NodeId>(node);
  const std::uint64_t sensors = r.u64();
  if (!r.ok() || sensors > r.remaining()) return false;
  a.sensors.resize(static_cast<std::size_t>(sensors));
  for (SenseCapability& s : a.sensors) {
    std::uint64_t modality = 0;
    if (!decode_enum(r, kModalityCount, modality)) return false;
    s.modality = static_cast<Modality>(modality);
    s.range_m = r.f64();
    s.quality = r.f64();
    s.false_positive_rate = r.f64();
  }
  const std::uint64_t actuators = r.u64();
  if (!r.ok() || actuators > r.remaining()) return false;
  a.actuators.resize(static_cast<std::size_t>(actuators));
  for (ActuateCapability& ac : a.actuators) {
    std::uint64_t kind = 0;
    if (!decode_enum(r, 5, kind)) return false;
    ac.kind = static_cast<ActuationKind>(kind);
    ac.range_m = r.f64();
  }
  a.compute.flops = r.f64();
  a.compute.memory_bytes = r.f64();
  a.compute.storage_bytes = r.f64();
  a.emissions.beacon_period_s = r.f64();
  a.emissions.responds_to_probe = r.boolean();
  a.emissions.side_channel_rate_hz = r.f64();
  a.report_reliability = r.f64();
  return r.ok();
}

void encode_energy(sim::WireWriter& w, const EnergyModel& e) {
  w.f64(e.capacity_j())
      .f64(e.stored_j())
      .f64(e.tx_cost_per_byte)
      .f64(e.sense_cost_per_obs)
      .f64(e.compute_cost_per_mflop)
      .f64(e.idle_cost_per_s);
}

EnergyModel decode_energy(sim::WireReader& r) {
  const double capacity = r.f64();
  const double stored = r.f64();
  EnergyModel e = EnergyModel::from_raw(capacity, stored);
  e.tx_cost_per_byte = r.f64();
  e.sense_cost_per_obs = r.f64();
  e.compute_cost_per_mflop = r.f64();
  e.idle_cost_per_s = r.f64();
  return e;
}

}  // namespace

void World::save(sim::WireWriter& w) const {
  w.u64(assets_.size());
  for (const Asset& a : assets_) encode_asset(w, a);
  for (std::uint8_t v : alive_) w.u64(v);
  for (const EnergyModel& e : energy_) encode_energy(w, e);

  // Alias table over every distinct mobility model referenced by assets OR
  // targets, in first-appearance order. Sharing structure is state: two
  // slots aliasing one model (one Rng stream) must still alias after the
  // round trip.
  std::vector<const MobilityModel*> table;
  std::map<const MobilityModel*, std::uint64_t> ids;
  const auto alias_of = [&](const std::shared_ptr<MobilityModel>& m)
      -> std::int64_t {
    if (!m) return -1;
    auto [it, inserted] = ids.emplace(m.get(), table.size());
    if (inserted) table.push_back(m.get());
    return static_cast<std::int64_t>(it->second);
  };
  std::vector<std::int64_t> asset_alias, target_alias;
  asset_alias.reserve(mobility_.size());
  for (const auto& m : mobility_) asset_alias.push_back(alias_of(m));
  target_alias.reserve(targets_.size());
  for (const Target& t : targets_) target_alias.push_back(alias_of(t.mobility));
  w.u64(table.size());
  for (const MobilityModel* m : table) encode_model(w, *m);
  for (std::int64_t a : asset_alias) w.i64(a);

  w.u64(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const Target& t = targets_[i];
    w.u64(t.id).vec2(t.position).i64(target_alias[i]).bytes(t.kind).boolean(
        t.active);
  }
  w.u64(node_to_asset_.size());
  for (AssetId id : node_to_asset_) w.u64(id);
  w.u64(disruptions_.size());
  for (const SensingDisruption& d : disruptions_) {
    w.u64(static_cast<std::uint64_t>(d.modality))
        .rect(d.region)
        .time(d.start)
        .time(d.end)
        .f64(d.severity);
  }
  w.rng(rng_)
      .boolean(started_)
      .dur(tick_period_)
      .time(next_tick_at_)
      .u64(sim_.pending_seq(tick_event_));
}

bool World::restore(sim::WireReader& r, sim::RestoreArmer& armer) {
  sim_.cancel(tick_event_);
  tick_event_ = sim::kNoEvent;
  // Ids are checked against the network, which restores first in every
  // stack, and against the asset slabs: the tick and the transmit hook
  // index by them unchecked, so an id past either would crash the run
  // after the image was accepted.
  const std::size_t nodes = net_.node_count();
  const std::uint64_t assets = r.u64();
  if (!r.ok() || assets > r.remaining()) return false;
  assets_.resize(static_cast<std::size_t>(assets));
  for (std::size_t i = 0; i < assets_.size(); ++i) {
    if (!decode_asset(r, assets_[i], i, nodes)) return false;
  }
  alive_.resize(assets_.size());
  for (std::uint8_t& v : alive_) {
    const std::uint64_t raw = r.u64();
    if (raw > 1) return false;
    v = static_cast<std::uint8_t>(raw);
  }
  energy_.clear();
  energy_.reserve(assets_.size());
  for (std::size_t i = 0; i < assets_.size(); ++i) {
    energy_.push_back(decode_energy(r));
  }

  // Fresh models out of the image, never shared with the source stack: the
  // snapshot stays immutable, so it can seed many branches, and each
  // branch's mobility advances independently.
  const std::uint64_t models = r.u64();
  if (!r.ok() || models > r.remaining()) return false;
  std::vector<std::shared_ptr<MobilityModel>> table;
  table.reserve(static_cast<std::size_t>(models));
  for (std::uint64_t i = 0; i < models; ++i) {
    auto m = decode_model(r);
    if (!m) return false;
    table.push_back(std::move(m));
  }
  const auto resolve = [&](std::int64_t alias,
                           std::shared_ptr<MobilityModel>& out) {
    if (alias < 0) {
      out = nullptr;
      return alias == -1;
    }
    if (static_cast<std::uint64_t>(alias) >= table.size()) return false;
    out = table[static_cast<std::size_t>(alias)];
    return true;
  };
  mobility_.resize(assets_.size());
  for (auto& m : mobility_) {
    if (!resolve(r.i64(), m)) return false;
  }

  const std::uint64_t targets = r.u64();
  if (!r.ok() || targets > r.remaining()) return false;
  targets_.resize(static_cast<std::size_t>(targets));
  for (Target& t : targets_) {
    t.id = static_cast<TargetId>(r.u64());
    t.position = r.vec2();
    if (!resolve(r.i64(), t.mobility)) return false;
    t.kind = r.bytes();
    t.active = r.boolean();
  }
  const std::uint64_t mapped = r.u64();
  if (!r.ok() || mapped > nodes) return false;
  node_to_asset_.resize(static_cast<std::size_t>(mapped));
  for (AssetId& id : node_to_asset_) {
    const std::uint64_t asset = r.u64();
    if (asset >= assets_.size()) return false;
    id = static_cast<AssetId>(asset);
  }
  const std::uint64_t disruptions = r.u64();
  if (!r.ok() || disruptions > r.remaining()) return false;
  disruptions_.resize(static_cast<std::size_t>(disruptions));
  for (SensingDisruption& d : disruptions_) {
    std::uint64_t modality = 0;
    if (!decode_enum(r, kModalityCount, modality)) return false;
    d.modality = static_cast<Modality>(modality);
    d.region = r.rect();
    d.start = r.time();
    d.end = r.time();
    d.severity = r.f64();
  }
  rng_ = r.rng();
  started_ = r.boolean();
  tick_period_ = r.dur();
  next_tick_at_ = r.time();
  const std::uint64_t tick_seq = r.u64();
  if (!r.ok()) return false;
  if (started_) {
    // A fresh branch stack may not have had start() called; (re)installing
    // the hook is idempotent on an in-place rewind.
    install_transmit_hook();
    if (tick_seq != 0) {
      armer.rearm(next_tick_at_, tick_seq, [this] { run_tick(); }, tick_tag_,
                  &tick_event_);
    }
  } else {
    net_.set_transmit_hook({});
  }
  return true;
}

}  // namespace iobt::things
