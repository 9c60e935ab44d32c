#pragma once
// Shared checkpoint/branch test scenario: a full substrate stack (kernel,
// network, world, attack injector) plus a TrafficDriver — a test-local
// checkpoint participant that models what a scenario-layer service must do
// to survive restore (re-arm its periodic loop, re-install its receive
// handlers). Used by checkpoint_test.cpp (unit-level round trips) and
// property_test.cpp (digest-identity sweeps).

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "net/network.h"
#include "security/attacks.h"
#include "sim/checkpoint.h"
#include "sim/hash.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/wire.h"
#include "things/mobility.h"
#include "things/population.h"
#include "things/world.h"

namespace iobt::testing {

/// Periodic broadcast driver, checkpoint-participant style: its schedule
/// cursor (next fire time + round counter) rides the Snapshot, its armed
/// event is re-armed under the original seq, and restore re-installs the
/// receive handlers on every node — including endpoints that exist only in
/// the snapshot (Sybils injected before the save never pass through a
/// fresh stack's construction code). Received-frame counts are recorded
/// into the Network's own MetricsRegistry so they round-trip with it.
class TrafficDriver final : public sim::Checkpointable {
 public:
  TrafficDriver(sim::Simulator& sim, net::Network& net, sim::Duration period)
      : sim_(sim), net_(net), period_(period) {
    tag_ = sim_.intern("test.traffic");
    sim_.checkpoint().register_participant(this);
  }
  ~TrafficDriver() override {
    sim_.cancel(event_);
    sim_.checkpoint().unregister(this);
  }

  void start() {
    started_ = true;
    install_handlers();
    next_at_ = sim_.now() + period_;
    arm();
  }

  std::string_view checkpoint_key() const override { return "test.traffic"; }

  void save(sim::WireWriter& w) const override {
    w.time(next_at_).u64(round_).u64(sim_.pending_seq(event_)).boolean(started_);
  }

  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override {
    sim_.cancel(event_);
    event_ = sim::kNoEvent;
    next_at_ = r.time();
    round_ = r.u64();
    const std::uint64_t seq = r.u64();
    started_ = r.boolean();
    if (!r.ok()) return false;
    if (started_) {
      install_handlers();
      if (seq != 0) {
        armer.rearm(next_at_, seq, [this] { run(); }, tag_, &event_);
      }
    }
    return true;
  }

 private:
  void install_handlers() {
    for (net::NodeId n = 0; n < net_.node_count(); ++n) {
      net_.set_handler(n, [this](const net::Message&) {
        net_.metrics().count("test.received");
      });
    }
  }

  void arm() {
    event_ = sim_.schedule_at(next_at_, [this] { run(); }, tag_);
  }

  void run() {
    event_ = sim::kNoEvent;
    const std::size_t n = net_.node_count();
    if (n > 0) {
      const auto src = static_cast<net::NodeId>(round_ % n);
      if (net_.node_up(src)) {
        net_.broadcast(src, net::Message{.kind = "hello", .size_bytes = 24});
      }
      // New endpoints (Sybil waves) join the listener set as they appear.
      if (nodes_with_handlers_ < n) {
        for (net::NodeId m = static_cast<net::NodeId>(nodes_with_handlers_);
             m < n; ++m) {
          net_.set_handler(m, [this](const net::Message&) {
            net_.metrics().count("test.received");
          });
        }
      }
    }
    nodes_with_handlers_ = n;
    ++round_;
    next_at_ = next_at_ + period_;
    arm();
  }

  sim::Simulator& sim_;
  net::Network& net_;
  sim::Duration period_;
  sim::TagId tag_ = sim::kUntagged;
  sim::SimTime next_at_;
  std::uint64_t round_ = 0;
  std::size_t nodes_with_handlers_ = 0;
  sim::EventId event_ = sim::kNoEvent;
  bool started_ = false;
};

/// One adversarial scenario stack, built deterministically from a seed.
/// The attack campaign is arranged so an interesting snapshot time exists:
/// jamming covers [40, 80) s, Sybil waves land at 30 s and 70 s, a mass
/// kill at 90 s and a targeted kill at 100 s — so saving at t in (40, 70)
/// is simultaneously mid-jamming-window and mid-sybil-wave, with the
/// second wave, both kills and the jamming-off edge still pending.
struct CheckpointScenario {
  sim::Simulator sim;
  net::Network net;
  things::World world;
  security::AttackInjector attacks;
  TrafficDriver traffic;

  explicit CheckpointScenario(std::uint64_t seed, std::size_t population = 36)
      : net(sim, net::ChannelModel(2.0, 0.2), sim::Rng(seed ^ 0xBADC0DEULL)),
        world(sim, net, {{0, 0}, {900, 900}}, sim::Rng(seed)),
        attacks(world),
        traffic(sim, net, sim::Duration::millis(500)) {
    sim::Rng layout(seed * 2654435761ULL + 1);
    for (std::size_t i = 0; i < population; ++i) {
      sim::Rng maker = layout.child(i);
      things::AssetSpec a = things::make_asset_template(
          things::DeviceClass::kSensorMote, things::Affiliation::kBlue, maker);
      a.mobility = std::make_shared<things::RandomWaypoint>(
          world.area(), 4.0, 2.0, maker.child(0x30B11E));
      world.add_asset(std::move(a),
                      {maker.uniform(0, 900), maker.uniform(0, 900)},
                      things::radio_for_class(things::DeviceClass::kSensorMote));
    }
    world.start(sim::Duration::seconds(1));
    traffic.start();
    attacks.schedule_jamming({450, 450}, 260, sim::SimTime::seconds(40),
                             sim::SimTime::seconds(80), 0.9);
    attacks.schedule_sensor_blackout(things::Modality::kCamera,
                                     {{200, 200}, {700, 700}},
                                     sim::SimTime::seconds(35),
                                     sim::SimTime::seconds(75), 0.8);
    sim::Rng attack_rng(seed ^ 0x5EC5EC5ECULL);
    attacks.schedule_sybil(4, sim::SimTime::seconds(30), attack_rng);
    attacks.schedule_sybil(3, sim::SimTime::seconds(70), attack_rng);
    attacks.schedule_mass_kill(
        0.25, sim::SimTime::seconds(90),
        [](const things::Asset& a) {
          return a.device_class == things::DeviceClass::kSensorMote;
        },
        attack_rng);
    attacks.schedule_node_kill(static_cast<things::AssetId>(population / 2),
                               sim::SimTime::seconds(100));
  }

  /// Bit-content digest over everything observable: network metrics
  /// (deliveries, drops, test.received, latency reservoirs), asset
  /// liveness + exact positions, attack log, and the clock.
  std::uint64_t digest() const {
    std::uint64_t h = net.metrics().digest();
    const auto mix = [&h](std::uint64_t v) { sim::hash_combine(h, v); };
    const auto mix_double = [&](double x) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      mix(bits);
    };
    mix(static_cast<std::uint64_t>(sim.now().nanos()));
    mix(world.asset_count());
    for (const things::Asset& a : world.assets()) {
      mix(world.asset_alive(a.id) ? 1 : 2);
      mix(static_cast<std::uint64_t>(a.affiliation));
      const sim::Vec2 p = net.position(a.node);
      mix_double(p.x);
      mix_double(p.y);
      mix_double(a.report_reliability);
    }
    mix(attacks.log().size());
    for (const auto& e : attacks.log()) {
      mix(sim::fnv1a(e.type));
      mix(static_cast<std::uint64_t>(e.at.nanos()));
      mix(sim::fnv1a(e.detail));
    }
    mix(attacks.sybil_ids().size());
    return h;
  }
};

}  // namespace iobt::testing
