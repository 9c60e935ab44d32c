// Tests for deterministic checkpoint/branch/restore (sim/checkpoint.h):
// registry key suffixing, clock rewind, FIFO-order re-arming, the
// no-unowned-pending-events invariant, and digest-identical restore across
// the full substrate stack (world mobility/energy, mid-flight network
// frames, attack campaigns, fresh-stack branching).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checkpoint_scenario.h"
#include "dissem/scenario.h"
#include "net/network.h"
#include "net_oracle.h"
#include "security/attacks.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "sim/wire.h"
#include "things/world.h"

namespace iobt {
namespace {

using sim::Duration;
using sim::Rng;
using sim::SimTime;
using testing::CheckpointScenario;

// ------------------------------------------------- Test participants ----

/// Minimal participant: saves one int, restores nothing, used for
/// registry-level tests (key suffixing, clock rewind).
struct Dummy final : sim::Checkpointable {
  std::string_view checkpoint_key() const override { return "dup"; }
  void save(sim::WireWriter& w) const override { w.u64(1); }
  bool restore(sim::WireReader& r, sim::RestoreArmer&) override {
    r.u64();
    return true;
  }
};

/// A participant owning a list of one-shot events; each fire appends its
/// value to a shared output vector. Save captures (value, when, fired,
/// original seq) per row; restore re-arms the unfired rows. This is the
/// minimal shape of the "service re-arms its own closures" contract.
class Emitter final : public sim::Checkpointable {
 public:
  Emitter(sim::Simulator& sim, std::string key, std::vector<int>& out)
      : sim_(sim), key_(std::move(key)), out_(&out) {
    sim_.checkpoint().register_participant(this);
  }
  ~Emitter() override {
    for (const Row& r : rows_) sim_.cancel(r.id);
    sim_.checkpoint().unregister(this);
  }

  void arm(int value, SimTime when) {
    rows_.push_back(Row{value, when, false, sim::kNoEvent});
    const std::size_t i = rows_.size() - 1;
    rows_[i].id = sim_.schedule_at(when, [this, i] { fire(i); });
  }

  std::string_view checkpoint_key() const override { return key_; }

  void save(sim::WireWriter& w) const override {
    w.u64(rows_.size());
    for (const Row& r : rows_) {
      w.i64(r.value).time(r.when).boolean(r.fired).u64(sim_.pending_seq(r.id));
    }
  }

  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override {
    for (Row& row : rows_) {
      sim_.cancel(row.id);
      row.id = sim::kNoEvent;
    }
    const std::uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining()) return false;
    rows_.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      rows_[i].value = static_cast<int>(r.i64());
      rows_[i].when = r.time();
      rows_[i].fired = r.boolean();
      rows_[i].id = sim::kNoEvent;
      const std::uint64_t seq = r.u64();
      if (!rows_[i].fired) {
        armer.rearm(rows_[i].when, seq, [this, i] { fire(i); }, sim::kUntagged,
                    &rows_[i].id);
      }
    }
    return r.ok();
  }

 private:
  struct Row {
    int value = 0;
    SimTime when;
    bool fired = false;
    sim::EventId id = sim::kNoEvent;
  };

  void fire(std::size_t i) {
    rows_[i].fired = true;
    rows_[i].id = sim::kNoEvent;
    out_->push_back(rows_[i].value);
  }

  sim::Simulator& sim_;
  std::string key_;
  std::vector<int>* out_;
  std::vector<Row> rows_;
};

// ----------------------------------------------------------- Registry ----

TEST(CheckpointRegistry, DuplicateKeysGetDeterministicSuffixes) {
  sim::Simulator sim;
  Dummy d1, d2, d3;
  auto& reg = sim.checkpoint();
  // The n-th participant claiming a key gets "#<n>".
  EXPECT_EQ(reg.register_participant(&d1), "dup");
  EXPECT_EQ(reg.register_participant(&d2), "dup#2");
  EXPECT_EQ(reg.register_participant(&d3), "dup#3");
  EXPECT_EQ(reg.participant_count(), 3u);

  // The image carries each key, length-prefixed, in roster order.
  const sim::Snapshot snap = reg.save();
  const std::string& image = snap.image();
  const std::size_t k1 = image.find(" 3 dup ");
  const std::size_t k2 = image.find(" 5 dup#2 ");
  const std::size_t k3 = image.find(" 5 dup#3 ");
  EXPECT_NE(k1, std::string::npos);
  EXPECT_NE(k2, std::string::npos);
  EXPECT_NE(k3, std::string::npos);
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);

  reg.unregister(&d2);
  EXPECT_EQ(reg.participant_count(), 2u);
  // The snapshot no longer matches the roster: restore must refuse.
  EXPECT_THROW(reg.restore(snap), std::logic_error);
  reg.unregister(&d1);
  reg.unregister(&d3);
}

TEST(CheckpointRegistry, SnapshotCarriesItsPrefixStamp) {
  // The campaign service (src/serve/) keys its checkpoint cache by a
  // canonical scenario-prefix hash and stamps each snapshot with its key at
  // save time, then verifies the stamp before restoring — a cache-integrity
  // check against aliased or mis-filed entries.
  sim::Simulator sim;
  Dummy d;
  sim.checkpoint().register_participant(&d);
  const sim::Snapshot unstamped = sim.checkpoint().save();
  EXPECT_EQ(unstamped.prefix_hash(), 0u);  // default: no key
  const sim::Snapshot stamped = sim.checkpoint().save(0xC0FFEE1234ULL);
  EXPECT_EQ(stamped.prefix_hash(), 0xC0FFEE1234ULL);
  // The stamp is metadata only: a stamped snapshot restores normally.
  sim.checkpoint().restore(stamped);
  sim.checkpoint().unregister(&d);
}

TEST(CheckpointRegistry, RestoreRewindsTheClock) {
  sim::Simulator sim;
  std::vector<int> out;
  Emitter e(sim, "emitter", out);
  sim.run_until(SimTime::seconds(5));
  const sim::Snapshot snap = sim.checkpoint().save();
  EXPECT_EQ(snap.at(), SimTime::seconds(5));
  sim.run_until(SimTime::seconds(9));
  EXPECT_EQ(sim.now(), SimTime::seconds(9));
  sim.checkpoint().restore(snap);
  EXPECT_EQ(sim.now(), SimTime::seconds(5));
}

TEST(CheckpointRegistry, RearmPreservesFifoOrderAtEqualTimestamps) {
  sim::Simulator sim;
  std::vector<int> out;
  Emitter a(sim, "a", out);
  Emitter b(sim, "b", out);
  // Interleaved arms, all at the same timestamp: the only thing ordering
  // their execution is the FIFO scheduling seq.
  const SimTime t = SimTime::seconds(1);
  a.arm(1, t);
  b.arm(2, t);
  a.arm(3, t);
  b.arm(4, t);
  a.arm(5, SimTime::seconds(2));

  const sim::Snapshot snap = sim.checkpoint().save();
  sim.run_until(SimTime::seconds(3));
  const std::vector<int> uninterrupted = out;
  ASSERT_EQ(uninterrupted, (std::vector<int>{1, 2, 3, 4, 5}));

  out.clear();
  sim.checkpoint().restore(snap);
  sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(out, uninterrupted);
}

TEST(CheckpointRegistry, NonParticipantPendingEventAbortsRestore) {
  sim::Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  const sim::Snapshot snap = sim.checkpoint().save();
  // The stray event belongs to no participant; restoring over it would
  // silently diverge the branch, so the registry refuses.
  EXPECT_THROW(sim.checkpoint().restore(snap), std::logic_error);
}

// -------------------------------------------------- World round trips ----

struct WorldStack {
  sim::Simulator sim;
  net::Network net{sim, net::ChannelModel(), Rng(3)};
  things::World world{sim, net, {{0, 0}, {500, 500}}, Rng(4)};
};

TEST(WorldCheckpoint, SharedMobilityStaysSharedAndPositionsReproduce) {
  WorldStack s;
  auto shared = std::make_shared<things::RandomWaypoint>(
      s.world.area(), 3.0, 1.0, Rng(77));
  const auto add = [&](std::shared_ptr<things::MobilityModel> m, sim::Vec2 at) {
    Rng maker(s.world.asset_count() + 10);
    things::AssetSpec a = things::make_asset_template(
        things::DeviceClass::kSensorMote, things::Affiliation::kBlue, maker);
    a.mobility = std::move(m);
    return s.world.add_asset(std::move(a), at, {});
  };
  const auto a0 = add(shared, {10, 10});
  const auto a1 = add(shared, {400, 400});
  const auto a2 = add(std::make_shared<things::GridPatrol>(s.world.area(), 50.0,
                                                           2.0, Rng(78)),
                      {250, 250});
  s.world.start(Duration::seconds(1));
  s.sim.run_until(SimTime::seconds(10));
  const sim::Snapshot snap = s.sim.checkpoint().save();

  s.sim.run_until(SimTime::seconds(40));
  const sim::Vec2 p0 = s.world.asset_position(a0);
  const sim::Vec2 p1 = s.world.asset_position(a1);
  const sim::Vec2 p2 = s.world.asset_position(a2);

  s.sim.checkpoint().restore(snap);
  // Aliasing is model state: the two assets sharing one waypoint model
  // before the save share one clone after the restore.
  EXPECT_EQ(s.world.mobility(a0).get(), s.world.mobility(a1).get());
  EXPECT_NE(s.world.mobility(a0).get(), s.world.mobility(a2).get());
  // And the snapshot's own models were not adopted (it stays immutable).
  EXPECT_NE(s.world.mobility(a0).get(), shared.get());

  s.sim.run_until(SimTime::seconds(40));
  EXPECT_EQ(s.world.asset_position(a0).x, p0.x);
  EXPECT_EQ(s.world.asset_position(a0).y, p0.y);
  EXPECT_EQ(s.world.asset_position(a1).x, p1.x);
  EXPECT_EQ(s.world.asset_position(a1).y, p1.y);
  EXPECT_EQ(s.world.asset_position(a2).x, p2.x);
  EXPECT_EQ(s.world.asset_position(a2).y, p2.y);
}

// ---------------------------------------------- Network mid-flight ----

TEST(NetworkCheckpoint, MidFlightFramesRestoreDigestIdentical) {
  sim::Simulator sim;
  net::Network net(sim, net::ChannelModel(2.0, 0.3), Rng(7));
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(net.add_node({i * 120.0, 0.0}, {.range_m = 150}));
  }
  for (const auto id : ids) {
    net.set_handler(id, [&net](const net::Message&) {
      net.metrics().count("test.received");
    });
  }
  // Multi-hop chains + broadcasts: deliveries land at >= 1 ms, so saving
  // at 0.5 ms captures frames on the air mid-flight.
  net.route_and_send(ids[0], ids[7], net::Message{.kind = "data", .size_bytes = 64});
  net.route_and_send(ids[7], ids[0], net::Message{.kind = "data", .size_bytes = 64});
  for (const auto id : ids) {
    net.broadcast(id, net::Message{.kind = "hello", .size_bytes = 16});
  }
  sim.run_until(SimTime::micros(500));
  ASSERT_GT(sim.pending_count(), 0u) << "expected frames in flight at save";
  const sim::Snapshot snap = sim.checkpoint().save();

  sim.run();
  const std::uint64_t uninterrupted = net.metrics().digest();

  sim.checkpoint().restore(snap);
  sim.run();
  EXPECT_EQ(net.metrics().digest(), uninterrupted);
}

// ------------------------------------------------- Full-stack branch ----

constexpr std::uint64_t kSeed = 2026;
const SimTime kSnapAt = SimTime::seconds(55);  // mid-jamming, between waves
const SimTime kHorizon = SimTime::seconds(120);

TEST(Branching, FreshStackRestoreMatchesUninterruptedRun) {
  CheckpointScenario a(kSeed);
  a.sim.run_until(kSnapAt);
  const sim::Snapshot snap = a.sim.checkpoint().save();
  a.sim.run_until(kHorizon);
  const std::uint64_t uninterrupted = a.digest();

  // The same scenario code builds a fresh stack; the snapshot overwrites
  // its state and the branch must land bit-identically.
  CheckpointScenario b(kSeed);
  b.sim.checkpoint().restore(snap);
  EXPECT_EQ(b.sim.now(), kSnapAt);
  b.sim.run_until(kHorizon);
  EXPECT_EQ(b.digest(), uninterrupted);
}

TEST(Branching, InPlaceRewindMatchesUninterruptedRun) {
  CheckpointScenario a(kSeed + 1);
  a.sim.run_until(kSnapAt);
  const sim::Snapshot snap = a.sim.checkpoint().save();
  a.sim.run_until(kHorizon);
  const std::uint64_t uninterrupted = a.digest();

  a.sim.checkpoint().restore(snap);
  EXPECT_EQ(a.sim.now(), kSnapAt);
  a.sim.run_until(kHorizon);
  EXPECT_EQ(a.digest(), uninterrupted);
}

TEST(Branching, KWayFanoutBranchesAreIdenticalAndIndependent) {
  CheckpointScenario a(kSeed + 2);
  a.sim.run_until(kSnapAt);
  const sim::Snapshot snap = a.sim.checkpoint().save();
  a.sim.run_until(kHorizon);
  const std::uint64_t uninterrupted = a.digest();

  // One snapshot, several branches: every branch replays identically, and
  // running one branch does not perturb the next (the snapshot is
  // immutable; each restore clones out of it).
  for (int k = 0; k < 3; ++k) {
    CheckpointScenario branch(kSeed + 2);
    branch.sim.checkpoint().restore(snap);
    branch.sim.run_until(kHorizon);
    EXPECT_EQ(branch.digest(), uninterrupted) << "branch " << k;
  }
}

TEST(Branching, MismatchedAttackCampaignThrows) {
  struct MiniStack {
    sim::Simulator sim;
    net::Network net{sim, net::ChannelModel(), Rng(1)};
    things::World world{sim, net, {{0, 0}, {100, 100}}, Rng(2)};
    security::AttackInjector attacks{world};
  };
  MiniStack a;
  a.attacks.schedule_node_kill(0, SimTime::seconds(10));
  const sim::Snapshot snap = a.sim.checkpoint().save();

  // Same participants, different campaign time: refuse.
  MiniStack b;
  b.attacks.schedule_node_kill(0, SimTime::seconds(11));
  EXPECT_THROW(b.sim.checkpoint().restore(snap), std::logic_error);

  // Fewer scheduled attacks than the snapshot carries: refuse.
  MiniStack c;
  EXPECT_THROW(c.sim.checkpoint().restore(snap), std::logic_error);
}

TEST(AttackCheckpoint, RestoreRewindsScheduleCursorWithoutRefiring) {
  CheckpointScenario a(kSeed + 3);
  a.sim.run_until(kSnapAt);
  // Fired by 55 s: sybil@30, blackout_on@35, jam_on@40.
  const std::size_t fired_at_snap = a.attacks.fired_count();
  EXPECT_EQ(fired_at_snap, 3u);
  const std::size_t log_at_snap = a.attacks.log().size();
  const sim::Snapshot snap = a.sim.checkpoint().save();

  a.sim.run_until(kHorizon);
  const std::size_t fired_final = a.attacks.fired_count();
  EXPECT_GT(fired_final, fired_at_snap);
  std::vector<std::string> final_log;
  for (const auto& e : a.attacks.log()) final_log.push_back(e.type);

  a.sim.checkpoint().restore(snap);
  EXPECT_EQ(a.attacks.fired_count(), fired_at_snap);
  EXPECT_EQ(a.attacks.log().size(), log_at_snap);

  a.sim.run_until(kHorizon);
  EXPECT_EQ(a.attacks.fired_count(), fired_final);
  std::vector<std::string> replayed_log;
  for (const auto& e : a.attacks.log()) replayed_log.push_back(e.type);
  EXPECT_EQ(replayed_log, final_log);  // nothing double-fired, nothing lost
}

// ------------------------------------------------ Mid-epidemic branch ----
//
// ISSUE 7 satellite: checkpoint coverage for the layered-network and
// dissemination state. The snapshot is taken mid-epidemic — the alert has
// landed on some nodes, regossip rounds are armed but unfired, and the
// gateway-hunt campaign straddles the snapshot (early kills and their
// promotions already happened; later kills are still pending) — and both
// branch styles must replay the uninterrupted run bit-for-bit: informed
// sets and times, promotions, layer/gateway slabs, and the full metrics
// digest.

dissem::DissemSpec mid_epidemic_spec() {
  dissem::DissemSpec spec;
  spec.name = "checkpoint";
  spec.layers = dissem::ground_aerial_layers();
  spec.mobility = dissem::MobilityKind::kWaypoint;
  spec.attack = dissem::AttackCampaign::kGatewayHunt;
  spec.intensity = 1.0;
  spec.horizon_s = 60.0;
  return spec;
}

// Alert seeds at 5 s and spreads in 2 s hops; 8.5 s is mid-wave: partial
// reach, pending regossip rounds (13 s, 19 s, ...), and a hunt campaign
// (kills at 6, 7.5, 9, ...) that is part-fired, part-pending — promotions
// already recorded AND still to come straddle the snapshot.
const SimTime kEpidemicSnapAt = SimTime::seconds(8.5);

TEST(DissemCheckpoint, MidEpidemicFreshStackBranchIsBitIdentical) {
  const std::uint64_t seed = 909;
  dissem::DissemScenario a(mid_epidemic_spec(), seed);
  a.sim.run_until(kEpidemicSnapAt);
  const std::size_t informed_at_snap = a.dissem.informed_count();
  ASSERT_GT(informed_at_snap, 0u);                    // epidemic underway
  ASSERT_LT(informed_at_snap, a.net.node_count());    // ... but not done
  const sim::Snapshot snap = a.sim.checkpoint().save();
  a.sim.run_until(SimTime::seconds(60));
  const dissem::DissemOutcome uninterrupted = a.outcome();
  ASSERT_GT(uninterrupted.promotions, 0u);  // the hunt happened post-snap

  // Fresh stack built by the same (spec, seed): restore + run must land on
  // the identical outcome, digest included.
  dissem::DissemScenario b(mid_epidemic_spec(), seed);
  b.sim.checkpoint().restore(snap);
  EXPECT_EQ(b.sim.now(), kEpidemicSnapAt);
  EXPECT_EQ(b.dissem.informed_count(), informed_at_snap);
  b.sim.run_until(SimTime::seconds(60));
  const dissem::DissemOutcome branched = b.outcome();
  EXPECT_EQ(branched.digest, uninterrupted.digest);
  EXPECT_EQ(branched.informed, uninterrupted.informed);
  EXPECT_EQ(branched.promotions, uninterrupted.promotions);
  EXPECT_EQ(branched.live, uninterrupted.live);
}

TEST(DissemCheckpoint, MidEpidemicInPlaceRewindIsBitIdentical) {
  dissem::DissemScenario a(mid_epidemic_spec(), 910);
  a.sim.run_until(kEpidemicSnapAt);
  const sim::Snapshot snap = a.sim.checkpoint().save();
  a.sim.run_until(SimTime::seconds(60));
  const dissem::DissemOutcome uninterrupted = a.outcome();

  // Rewind the SAME stack: informed times, gateway state, and pending
  // gossip rows all roll back, then replay identically.
  a.sim.checkpoint().restore(snap);
  EXPECT_EQ(a.sim.now(), kEpidemicSnapAt);
  a.sim.run_until(SimTime::seconds(60));
  EXPECT_EQ(a.outcome().digest, uninterrupted.digest);
}

TEST(DissemCheckpoint, LayerAndGatewaySlabsRoundTrip) {
  // Promote/demote against the snapshot state and check restore puts the
  // layer topology back exactly: layers, gateway flags, and the
  // inter-layer edges they induce. The restored edge store must be, bit
  // for bit (edges, neighbour order, weights), both the brute-force
  // oracle's graph and the saved stack's store after a weight sync, after
  // an in-place rewind and after a restore into a fresh branch stack.
  dissem::DissemScenario a(mid_epidemic_spec(), 911);
  a.sim.run_until(kEpidemicSnapAt);
  std::vector<net::LayerId> layers;
  std::vector<bool> gateways;
  for (net::NodeId id = 0; id < a.net.node_count(); ++id) {
    layers.push_back(a.net.layer(id));
    gateways.push_back(a.net.is_gateway(id));
  }
  const net::Topology store_at_snap = a.net.connectivity();
  const sim::Snapshot snap = a.sim.checkpoint().save();
  const auto expect_restored = [&](const net::Network& net, const char* how) {
    for (net::NodeId id = 0; id < net.node_count(); ++id) {
      EXPECT_EQ(net.layer(id), layers[id]) << how << ", node " << id;
      EXPECT_EQ(net.is_gateway(id), gateways[id]) << how << ", node " << id;
    }
    EXPECT_EQ(testing::topology_difference(net.topology_view(), testing::brute_connectivity(net)),
              "")
        << how << ": store vs oracle";
    EXPECT_EQ(testing::topology_difference(net.topology_view(), store_at_snap), "")
        << how << ": store vs the saved stack's";
  };

  a.sim.run_until(SimTime::seconds(60));  // hunt kills + promotions mutate
  a.sim.checkpoint().restore(snap);
  expect_restored(a.net, "in-place rewind");

  dissem::DissemScenario branch(mid_epidemic_spec(), 911);
  branch.sim.checkpoint().restore(snap);
  expect_restored(branch.net, "fresh branch stack");

  // The reseed leaves no stale mark behind: moves after it still reach
  // the weights.
  branch.sim.run_until(SimTime::seconds(60));
  EXPECT_EQ(testing::topology_difference(branch.net.topology_view(),
                                         testing::brute_connectivity(branch.net)),
            "")
      << "branch at 60 s: store vs oracle";
}

}  // namespace
}  // namespace iobt
