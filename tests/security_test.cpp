// Tests for trust management, risk scoring, and attack injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "security/attacks.h"
#include "security/risk.h"
#include "security/trust.h"
#include "things/population.h"

namespace iobt::security {
namespace {

using sim::Rng;
using sim::SimTime;

// ---------------------------------------------------------------- Trust ----

TEST(BetaReputation, StartsAtPrior) {
  BetaReputation r;
  EXPECT_DOUBLE_EQ(r.score(), 0.5);
  EXPECT_DOUBLE_EQ(r.evidence(), 2.0);
}

TEST(BetaReputation, PositiveEvidenceRaisesScore) {
  BetaReputation r;
  for (int i = 0; i < 10; ++i) r.record(true);
  EXPECT_GT(r.score(), 0.9);
  for (int i = 0; i < 40; ++i) r.record(false);
  EXPECT_LT(r.score(), 0.3);
}

TEST(BetaReputation, WeightedEvidence) {
  BetaReputation a, b;
  a.record(true, 10.0);
  for (int i = 0; i < 10; ++i) b.record(true, 1.0);
  EXPECT_DOUBLE_EQ(a.score(), b.score());
}

TEST(BetaReputation, DecayMovesTowardPrior) {
  BetaReputation r;
  for (int i = 0; i < 50; ++i) r.record(true);
  const double before = r.score();
  r.decay(0.1);
  EXPECT_LT(r.score(), before);
  EXPECT_GT(r.score(), 0.5);  // still above prior
  r.decay(0.0);
  EXPECT_DOUBLE_EQ(r.score(), 0.5);  // full forgetting = prior
}

TEST(TrustRegistry, UnknownSubjectsGetPrior) {
  TrustRegistry t;
  EXPECT_DOUBLE_EQ(t.score(42), 0.5);
  EXPECT_DOUBLE_EQ(t.evidence(42), 2.0);
  EXPECT_TRUE(t.trusted(42));  // prior sits exactly at the 0.5 threshold
}

TEST(TrustRegistry, ThresholdGatesTrusted) {
  TrustRegistry t(0.7);
  t.record(1, true);
  t.record(1, true);
  t.record(1, true);
  EXPECT_GT(t.score(1), 0.7);
  EXPECT_TRUE(t.trusted(1));
  t.record(2, false);
  EXPECT_FALSE(t.trusted(2));
}

TEST(TrustRegistry, DecayAllAffectsEverySubject) {
  TrustRegistry t;
  for (int i = 0; i < 20; ++i) t.record(1, true);
  for (int i = 0; i < 20; ++i) t.record(2, false);
  const double s1 = t.score(1), s2 = t.score(2);
  t.decay_all(0.5);
  EXPECT_LT(t.score(1), s1);
  EXPECT_GT(t.score(2), s2);
}

// ----------------------------------------------------------------- Risk ----

TEST(Risk, NoMembersNoRisk) {
  const RiskReport r = assess_risk({});
  EXPECT_DOUBLE_EQ(r.residual_risk, 0.0);
}

TEST(Risk, UntrustedMembersRaiseInfiltrationRisk) {
  RiskInputs high_trust{.member_trust = {0.99, 0.99, 0.99}};
  RiskInputs low_trust{.member_trust = {0.6, 0.6, 0.6}};
  EXPECT_LT(assess_risk(high_trust).infiltration_risk,
            assess_risk(low_trust).infiltration_risk);
}

TEST(Risk, ComponentsComposeMonotonically) {
  RiskInputs base{.member_trust = {0.9, 0.9}};
  RiskInputs with_spof = base;
  with_spof.spof_fraction = 0.5;
  RiskInputs with_both = with_spof;
  with_both.uncertified_fraction = 0.8;
  const double r0 = assess_risk(base).residual_risk;
  const double r1 = assess_risk(with_spof).residual_risk;
  const double r2 = assess_risk(with_both).residual_risk;
  EXPECT_LT(r0, r1);
  EXPECT_LT(r1, r2);
  EXPECT_LE(r2, 1.0);
}

TEST(Risk, CombineIndependent) {
  EXPECT_DOUBLE_EQ(combine_independent({0.0, 0.0}), 0.0);
  EXPECT_NEAR(combine_independent({0.5, 0.5}), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(combine_independent({1.0, 0.3}), 1.0);
}

// -------------------------------------------------------------- Attacks ----

struct AttackFixture : ::testing::Test {
  sim::Simulator sim;
  net::ChannelModel channel{2.0, 0.0};
  net::Network net{sim, channel, Rng(5)};
  things::World world{sim, net, {{0, 0}, {1000, 1000}}, Rng(6)};
  AttackInjector attacks{world};

  things::AssetId add_mote(sim::Vec2 pos) {
    Rng r(world.asset_count() + 1);
    return world.add_asset(
        things::make_asset_template(things::DeviceClass::kSensorMote,
                                    things::Affiliation::kBlue, r),
        pos, things::radio_for_class(things::DeviceClass::kSensorMote));
  }
};

TEST_F(AttackFixture, NodeKillFiresAtScheduledTime) {
  const auto a = add_mote({100, 100});
  attacks.schedule_node_kill(a, SimTime::seconds(50));
  sim.run_until(SimTime::seconds(49));
  EXPECT_TRUE(world.asset_live(a));
  sim.run_until(SimTime::seconds(51));
  EXPECT_FALSE(world.asset_live(a));
  ASSERT_EQ(attacks.log().size(), 1u);
  EXPECT_EQ(attacks.log()[0].type, "node_kill");
}

TEST_F(AttackFixture, CaptureFlipsAffiliationAndSilences) {
  const auto a = add_mote({100, 100});
  attacks.schedule_capture(a, SimTime::seconds(10), 0.15);
  sim.run_until(SimTime::seconds(11));
  const auto& asset = world.asset(a);
  EXPECT_EQ(asset.affiliation, things::Affiliation::kRed);
  EXPECT_FALSE(asset.emissions.responds_to_probe);
  EXPECT_DOUBLE_EQ(asset.report_reliability, 0.15);
  EXPECT_TRUE(world.asset_live(a));  // capture does not kill
}

TEST_F(AttackFixture, MassKillRespectsPredicateAndFraction) {
  for (int i = 0; i < 100; ++i) add_mote({static_cast<double>(i), 0});
  attacks.schedule_mass_kill(
      0.5, SimTime::seconds(5),
      [](const things::Asset& a) { return a.device_class == things::DeviceClass::kSensorMote; },
      Rng(77));
  sim.run_until(SimTime::seconds(6));
  const std::size_t live = world.live_asset_count();
  EXPECT_GT(live, 30u);
  EXPECT_LT(live, 70u);
}

TEST_F(AttackFixture, SybilCreatesDeceptiveAssets) {
  attacks.schedule_sybil(5, SimTime::seconds(3), Rng(9));
  sim.run_until(SimTime::seconds(4));
  ASSERT_EQ(attacks.sybil_ids().size(), 5u);
  for (const auto id : attacks.sybil_ids()) {
    const auto& a = world.asset(id);
    EXPECT_EQ(a.affiliation, things::Affiliation::kRed);
    EXPECT_TRUE(a.emissions.responds_to_probe);  // pretends to cooperate
    EXPECT_GT(a.emissions.beacon_period_s, 0.0);
    EXPECT_LT(a.report_reliability, 0.5);
  }
}

TEST_F(AttackFixture, JammingRegistersChannelJammer) {
  attacks.schedule_jamming({500, 500}, 200, SimTime::seconds(10), SimTime::seconds(20));
  ASSERT_EQ(net.channel().jammers().size(), 1u);
  const auto& j = net.channel().jammers()[0];
  EXPECT_TRUE(j.active_at(SimTime::seconds(15)));
  EXPECT_FALSE(j.active_at(SimTime::seconds(25)));
  sim.run_until(SimTime::seconds(30));
  ASSERT_EQ(attacks.log().size(), 2u);
  EXPECT_EQ(attacks.log()[0].type, "jamming_on");
  EXPECT_EQ(attacks.log()[1].type, "jamming_off");
}

// --------------------------------------- Injector reentrancy regressions ----

// Regression (heap-use-after-free under ASan): a down-hook that recruits a
// replacement asset during a mass kill. world.add_asset() grows the asset
// vector, which may reallocate it mid-kill; the injector must therefore
// walk the population by index with a count snapshotted before the sweep —
// a range-for holding `const auto& a` across destroy_asset() dereferences
// freed memory as soon as the vector moves. Replacements also must not be
// swept (they arrived after the attack fired).
TEST_F(AttackFixture, MassKillSurvivesDownHookRecruitingReplacements) {
  for (int i = 0; i < 64; ++i) add_mote({static_cast<double>(i * 10), 0});
  const std::size_t initial = world.asset_count();
  std::size_t recruited = 0;
  world.on_asset_down([&](things::AssetId) {
    // One replacement per casualty: repeated reallocation pressure while
    // the kill sweep is still iterating.
    add_mote({500, 500});
    ++recruited;
  });
  attacks.schedule_mass_kill(
      0.5, SimTime::seconds(5),
      [](const things::Asset& a) {
        return a.device_class == things::DeviceClass::kSensorMote;
      },
      Rng(41));
  sim.run_until(SimTime::seconds(6));
  EXPECT_GT(recruited, 0u);
  EXPECT_EQ(world.asset_count(), initial + recruited);
  // Every replacement arrived after the fraction draw and is alive.
  for (std::size_t i = initial; i < world.asset_count(); ++i) {
    EXPECT_TRUE(world.asset_live(static_cast<things::AssetId>(i)));
  }
}

// Regression: node_kill and mass_kill overlapping on the same asset (and a
// re-entrant destroy from a down-hook) must fire the down-hooks exactly
// once per asset — destroy_asset is idempotent on already-dead assets.
TEST_F(AttackFixture, OverlappingKillsFireDownHooksOncePerAsset) {
  const auto victim = add_mote({100, 100});
  for (int i = 0; i < 30; ++i) add_mote({static_cast<double>(i * 30), 200});
  std::vector<int> downs(world.asset_count(), 0);
  world.on_asset_down([&](things::AssetId id) {
    ++downs[id];
    world.destroy_asset(id);  // re-entrant kill of an already-dead asset
  });
  // Both attacks land at t=5 s and can both select `victim`.
  attacks.schedule_node_kill(victim, SimTime::seconds(5));
  attacks.schedule_mass_kill(
      1.0, SimTime::seconds(5), [](const things::Asset&) { return true; },
      Rng(43));
  sim.run_until(SimTime::seconds(6));
  EXPECT_FALSE(world.asset_live(victim));
  for (std::size_t i = 0; i < downs.size(); ++i) {
    EXPECT_EQ(downs[i], world.asset_alive(static_cast<things::AssetId>(i)) ? 0 : 1)
        << "asset " << i;
  }
}

TEST_F(AttackFixture, RegionKillOnlyStrikesInsideTheRegion) {
  // Four motes inside the strike box, four well outside it.
  std::vector<things::AssetId> inside, outside;
  for (int i = 0; i < 4; ++i) {
    inside.push_back(add_mote({100.0 + 20.0 * i, 100.0}));
    outside.push_back(add_mote({800.0, 800.0 + 20.0 * i}));
  }
  const sim::Rect strike{{0, 0}, {300, 300}};
  // fraction = 1: every live asset inside the region dies; nothing outside
  // may be touched regardless of the per-victim draws.
  attacks.schedule_region_kill(strike, 1.0, SimTime::seconds(5), Rng(17));
  sim.run_until(SimTime::seconds(6));
  for (const auto id : inside) EXPECT_FALSE(world.asset_live(id));
  for (const auto id : outside) EXPECT_TRUE(world.asset_live(id));
  ASSERT_EQ(attacks.log().size(), 1u);
  EXPECT_EQ(attacks.log()[0].type, "region_kill");
  EXPECT_EQ(attacks.log()[0].detail, "killed=4");

  // Determinism: an identical stack replays the identical victim set at
  // a sub-1.0 fraction (where the per-victim Bernoulli draws matter).
  const auto run_partial = [] {
    sim::Simulator sim2;
    net::ChannelModel channel2{2.0, 0.0};
    net::Network net2{sim2, channel2, Rng(5)};
    things::World world2{sim2, net2, {{0, 0}, {1000, 1000}}, Rng(6)};
    AttackInjector attacks2{world2};
    Rng r(1);
    for (int i = 0; i < 16; ++i) {
      world2.add_asset(
          things::make_asset_template(things::DeviceClass::kSensorMote,
                                      things::Affiliation::kBlue, r),
          {50.0 + 10.0 * i, 60.0},
          things::radio_for_class(things::DeviceClass::kSensorMote));
    }
    attacks2.schedule_region_kill({{0, 0}, {500, 500}}, 0.5,
                                  SimTime::seconds(5), Rng(17));
    sim2.run_until(SimTime::seconds(6));
    std::vector<bool> alive;
    for (std::size_t i = 0; i < world2.asset_count(); ++i) {
      alive.push_back(world2.asset_live(static_cast<things::AssetId>(i)));
    }
    return alive;
  };
  const std::vector<bool> first = run_partial();
  EXPECT_EQ(first, run_partial());
  // A 0.5 fraction should kill some but typically not all of the 16.
  const auto dead = std::count(first.begin(), first.end(), false);
  EXPECT_GT(dead, 0);
  EXPECT_LT(dead, 16);
}

// The injector forks a child stream per scheduled row (salted by the row
// index), so passing one Rng by value to several schedule_* calls does not
// duplicate streams: two mass kills armed from the same generator state
// must draw different victim sets, and a Sybil wave scheduled twice from
// the same generator must place its fakes differently.
TEST_F(AttackFixture, ScheduleCallsFromOneRngGetIndependentStreams) {
  const Rng shared(99);  // same state handed to every schedule call
  // Two Sybil waves armed from identical generator state. Byte-copied
  // streams would run the same position/identity draw sequence twice and
  // spawn both waves at identical coordinates; per-row child streams must
  // place them differently.
  attacks.schedule_sybil(3, SimTime::seconds(8), shared);
  attacks.schedule_sybil(3, SimTime::seconds(9), shared);
  sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(attacks.sybil_ids().size(), 6u);
  bool any_position_differs = false;
  for (int k = 0; k < 3; ++k) {
    const sim::Vec2 p1 = world.asset_position(attacks.sybil_ids()[k]);
    const sim::Vec2 p2 = world.asset_position(attacks.sybil_ids()[k + 3]);
    if (p1.x != p2.x || p1.y != p2.y) any_position_differs = true;
  }
  EXPECT_TRUE(any_position_differs);

  // And the same scheduling code is reproducible: a second stack built
  // identically places its waves at exactly the same coordinates.
  struct TwinStack {
    sim::Simulator sim;
    net::ChannelModel channel{2.0, 0.0};
    net::Network net{sim, channel, Rng(5)};
    things::World world{sim, net, {{0, 0}, {1000, 1000}}, Rng(6)};
    AttackInjector attacks{world};
  };
  TwinStack twin;
  twin.attacks.schedule_sybil(3, SimTime::seconds(8), shared);
  twin.attacks.schedule_sybil(3, SimTime::seconds(9), shared);
  twin.sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(twin.attacks.sybil_ids().size(), 6u);
  for (int k = 0; k < 6; ++k) {
    const sim::Vec2 p = world.asset_position(attacks.sybil_ids()[k]);
    const sim::Vec2 q = twin.world.asset_position(twin.attacks.sybil_ids()[k]);
    EXPECT_EQ(p.x, q.x);
    EXPECT_EQ(p.y, q.y);
  }
}

}  // namespace
}  // namespace iobt::security
