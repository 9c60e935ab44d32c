#include "security/attacks.h"

#include <stdexcept>

#include "sim/wire.h"
#include "things/population.h"

namespace iobt::security {

namespace {

/// Row-index-keyed salt for the per-row private Rng streams (see the class
/// comment: one caller Rng, many independent schedule rows).
constexpr std::uint64_t kRowStreamSalt = 0xA77AC000ULL;

}  // namespace

AttackInjector::AttackInjector(things::World& world) : world_(world) {
  world_.simulator().checkpoint().register_participant(this);
}

AttackInjector::~AttackInjector() {
  for (const Scheduled& s : schedule_) world_.simulator().cancel(s.armed);
  world_.simulator().checkpoint().unregister(this);
}

void AttackInjector::record(std::string type, std::string detail) {
  log_.push_back({std::move(type), world_.simulator().now(), std::move(detail)});
}

std::size_t AttackInjector::fired_count() const {
  std::size_t n = 0;
  for (const Scheduled& s : schedule_) {
    if (s.fired) ++n;
  }
  return n;
}

void AttackInjector::add_scheduled(Scheduled s) {
  const std::size_t index = schedule_.size();
  schedule_.push_back(std::move(s));
  arm(index);
}

void AttackInjector::arm(std::size_t index) {
  schedule_[index].armed = world_.simulator().schedule_at(
      schedule_[index].when, [this, index] { fire(index); }, schedule_[index].tag);
}

void AttackInjector::fire(std::size_t index) {
  schedule_[index].armed = sim::kNoEvent;
  schedule_[index].fired = true;
  switch (schedule_[index].kind) {
    case Kind::kJamOn:
      record("jamming_on", "");
      break;
    case Kind::kJamOff:
      record("jamming_off", "");
      break;
    case Kind::kBlackoutOn:
      record("sensor_blackout_on", things::to_string(schedule_[index].modality));
      break;
    case Kind::kBlackoutOff:
      record("sensor_blackout_off", things::to_string(schedule_[index].modality));
      break;
    case Kind::kNodeKill: {
      const things::AssetId id = schedule_[index].asset;
      world_.destroy_asset(id);
      record("node_kill", "asset=" + std::to_string(id));
      break;
    }
    case Kind::kMassKill: {
      // destroy_asset fires down-hooks that may recruit replacements
      // (add_asset reallocates the asset table) or schedule further
      // attacks (reallocating schedule_): iterate by index with a
      // snapshotted count and never hold references across the kill.
      const double fraction = schedule_[index].fraction;
      sim::Rng rng = schedule_[index].rng;
      std::size_t killed = 0;
      const std::size_t asset_count = world_.asset_count();
      for (std::size_t i = 0; i < asset_count; ++i) {
        const auto id = static_cast<things::AssetId>(i);
        if (!world_.asset_live(id)) continue;
        if (!schedule_[index].pred(world_.asset(id))) continue;
        if (rng.bernoulli(fraction)) {
          world_.destroy_asset(id);
          ++killed;
        }
      }
      schedule_[index].rng = rng;
      record("mass_kill", "killed=" + std::to_string(killed));
      break;
    }
    case Kind::kRegionKill: {
      // Same reentrancy discipline as mass_kill: down-hooks may recruit
      // replacements or schedule further attacks, so index everything and
      // snapshot the count.
      const sim::Rect region = schedule_[index].region;
      const double fraction = schedule_[index].fraction;
      sim::Rng rng = schedule_[index].rng;
      std::size_t killed = 0;
      const std::size_t asset_count = world_.asset_count();
      for (std::size_t i = 0; i < asset_count; ++i) {
        const auto id = static_cast<things::AssetId>(i);
        if (!world_.asset_live(id)) continue;
        if (!region.contains(world_.asset_position(id))) continue;
        if (rng.bernoulli(fraction)) {
          world_.destroy_asset(id);
          ++killed;
        }
      }
      schedule_[index].rng = rng;
      record("region_kill", "killed=" + std::to_string(killed));
      break;
    }
    case Kind::kCapture: {
      things::Asset& a = world_.asset(schedule_[index].asset);
      if (!world_.asset_alive(schedule_[index].asset)) break;
      a.affiliation = things::Affiliation::kRed;
      a.emissions.responds_to_probe = false;
      a.emissions.beacon_period_s = 0.0;
      a.report_reliability = schedule_[index].reliability;
      record("capture", "asset=" + std::to_string(schedule_[index].asset));
      break;
    }
    case Kind::kSybil: {
      const std::size_t count = schedule_[index].count;
      const sim::Rng rng = schedule_[index].rng;
      const sim::Rect area = world_.area();
      for (std::size_t i = 0; i < count; ++i) {
        sim::Rng item = rng.child(i);
        things::AssetSpec a = things::make_asset_template(
            things::DeviceClass::kSmartphone, things::Affiliation::kRed, item);
        // Sybils *pretend* to cooperate: they answer probes and beacon
        // like blue motes so they pass naive discovery.
        a.emissions.responds_to_probe = true;
        a.emissions.beacon_period_s = 30.0;
        a.report_reliability = 0.1;  // their reports are poison
        const sim::Vec2 pos = {item.uniform(area.min.x, area.max.x),
                               item.uniform(area.min.y, area.max.y)};
        // add_asset fires added-hooks (firmware installers) that may
        // re-enter the injector; index-based access everywhere.
        sybil_ids_.push_back(world_.add_asset(
            std::move(a), pos,
            things::radio_for_class(things::DeviceClass::kSmartphone)));
      }
      record("sybil", "count=" + std::to_string(count));
      break;
    }
  }
}

void AttackInjector::schedule_jamming(sim::Vec2 center, double radius_m,
                                      sim::SimTime start, sim::SimTime end,
                                      double strength) {
  // The jammer is registered immediately (the channel gates on its active
  // window — and the channel state rides the Network's checkpoint); the
  // on/off rows exist for experiment timelines.
  world_.network().add_jammer(
      {.center = center, .radius_m = radius_m, .start = start, .end = end,
       .induced_loss = strength});
  Scheduled on;
  on.kind = Kind::kJamOn;
  on.when = start;
  on.tag = world_.simulator().intern("attack.jam_on");
  add_scheduled(std::move(on));
  if (end < sim::SimTime::max()) {
    Scheduled off;
    off.kind = Kind::kJamOff;
    off.when = end;
    off.tag = world_.simulator().intern("attack.jam_off");
    add_scheduled(std::move(off));
  }
}

void AttackInjector::schedule_sensor_blackout(things::Modality modality,
                                              sim::Rect region, sim::SimTime start,
                                              sim::SimTime end, double severity) {
  world_.add_sensing_disruption(
      {.modality = modality, .region = region, .start = start, .end = end,
       .severity = severity});
  Scheduled on;
  on.kind = Kind::kBlackoutOn;
  on.when = start;
  on.tag = world_.simulator().intern("attack.blackout_on");
  on.modality = modality;
  add_scheduled(std::move(on));
  if (end < sim::SimTime::max()) {
    Scheduled off;
    off.kind = Kind::kBlackoutOff;
    off.when = end;
    off.tag = world_.simulator().intern("attack.blackout_off");
    off.modality = modality;
    add_scheduled(std::move(off));
  }
}

void AttackInjector::schedule_node_kill(things::AssetId id, sim::SimTime when) {
  Scheduled s;
  s.kind = Kind::kNodeKill;
  s.when = when;
  s.tag = world_.simulator().intern("attack.kill");
  s.asset = id;
  add_scheduled(std::move(s));
}

void AttackInjector::schedule_mass_kill(double fraction, sim::SimTime when,
                                        std::function<bool(const things::Asset&)> pred,
                                        sim::Rng rng) {
  Scheduled s;
  s.kind = Kind::kMassKill;
  s.when = when;
  s.tag = world_.simulator().intern("attack.mass_kill");
  s.fraction = fraction;
  s.rng = rng.child(kRowStreamSalt + schedule_.size());
  s.pred = std::move(pred);
  add_scheduled(std::move(s));
}

void AttackInjector::schedule_region_kill(sim::Rect region, double fraction,
                                          sim::SimTime when, sim::Rng rng) {
  Scheduled s;
  s.kind = Kind::kRegionKill;
  s.when = when;
  s.tag = world_.simulator().intern("attack.region_kill");
  s.region = region;
  s.fraction = fraction;
  s.rng = rng.child(kRowStreamSalt + schedule_.size());
  add_scheduled(std::move(s));
}

void AttackInjector::schedule_capture(things::AssetId id, sim::SimTime when,
                                      double captured_reliability) {
  Scheduled s;
  s.kind = Kind::kCapture;
  s.when = when;
  s.tag = world_.simulator().intern("attack.capture");
  s.asset = id;
  s.reliability = captured_reliability;
  add_scheduled(std::move(s));
}

void AttackInjector::schedule_sybil(std::size_t count, sim::SimTime when,
                                    sim::Rng rng) {
  Scheduled s;
  s.kind = Kind::kSybil;
  s.when = when;
  s.tag = world_.simulator().intern("attack.sybil");
  s.count = count;
  s.rng = rng.child(kRowStreamSalt + schedule_.size());
  add_scheduled(std::move(s));
}

void AttackInjector::save(sim::WireWriter& w) const {
  w.u64(schedule_.size());
  for (const Scheduled& s : schedule_) {
    w.i64(static_cast<int>(s.kind)).time(s.when).boolean(s.fired).rng(s.rng)
        .u64(world_.simulator().pending_seq(s.armed));
  }
  w.u64(sybil_ids_.size());
  for (things::AssetId id : sybil_ids_) w.u64(id);
  w.u64(log_.size());
  for (const AttackEvent& e : log_) {
    w.bytes(e.type).time(e.at).bytes(e.detail);
  }
}

bool AttackInjector::restore(sim::WireReader& r, sim::RestoreArmer& armer) {
  // The schedule-prefix check below must see every row before anything is
  // touched, so the image is read into locals first.
  struct Row {
    int kind = 0;
    sim::SimTime when;
    bool fired = false;
    sim::Rng rng;
    std::uint64_t seq = 0;  // original FIFO seq while armed; 0 once fired
  };
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining()) return false;
  std::vector<Row> rows(static_cast<std::size_t>(count));
  for (Row& row : rows) {
    row.kind = static_cast<int>(r.i64());
    row.when = r.time();
    row.fired = r.boolean();
    row.rng = r.rng();
    row.seq = r.u64();
  }
  const std::uint64_t sybils = r.u64();
  if (!r.ok() || sybils > r.remaining()) return false;
  std::vector<things::AssetId> sybil_ids(static_cast<std::size_t>(sybils));
  for (things::AssetId& id : sybil_ids) {
    // Callers look the ids up in the world, which restores first.
    const std::uint64_t asset = r.u64();
    if (asset >= world_.asset_count()) return false;
    id = static_cast<things::AssetId>(asset);
  }
  const std::uint64_t events = r.u64();
  if (!r.ok() || events > r.remaining()) return false;
  std::vector<AttackEvent> log(static_cast<std::size_t>(events));
  for (AttackEvent& e : log) {
    e.type = r.bytes();
    e.at = r.time();
    e.detail = r.bytes();
  }
  if (!r.ok()) return false;

  if (rows.size() > schedule_.size()) {
    throw std::logic_error(
        "AttackInjector::restore: the snapshot holds more scheduled attacks "
        "than this stack declared — branch stacks must be built by the same "
        "scenario code as the saved one");
  }
  // Cancel every armed row, then verify the restoring stack's schedule is
  // a campaign-identical prefix match. Rows past the snapshot (scheduled
  // after the save on an in-place rewind) are truncated away.
  for (Scheduled& s : schedule_) {
    world_.simulator().cancel(s.armed);
    s.armed = sim::kNoEvent;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int>(schedule_[i].kind) != rows[i].kind ||
        schedule_[i].when != rows[i].when) {
      throw std::logic_error(
          "AttackInjector::restore: scheduled attack " + std::to_string(i) +
          " does not match the snapshot (different kind or time)");
    }
  }
  schedule_.resize(rows.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const Row& row = rows[i];
    schedule_[i].fired = row.fired;
    schedule_[i].rng = row.rng;
    if (!row.fired) {
      if (row.seq == 0) {
        throw std::logic_error(
            "AttackInjector::restore: unfired attack row " + std::to_string(i) +
            " was not armed at save time");
      }
      armer.rearm(schedule_[i].when, row.seq, [this, i] { fire(i); },
                  schedule_[i].tag, &schedule_[i].armed);
    }
  }
  sybil_ids_ = std::move(sybil_ids);
  log_ = std::move(log);
  return true;
}

}  // namespace iobt::security
