// Cross-module property tests: invariants that must hold over randomized
// inputs, parameterized by seed. These complement the per-module unit
// tests with the "for all" style checks the guides call for.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>

#include "checkpoint_scenario.h"
#include "intent/games.h"
#include "learn/aggregation.h"
#include "net/network.h"
#include "sim/checkpoint.h"
#include "sim/runner.h"
#include "social/claims.h"
#include "synthesis/composer.h"
#include "track/kalman.h"

namespace iobt {
namespace {

using sim::Rng;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// ------------------------------------------------------------- Composer ----

TEST_P(SeedSweep, ComposerCoverageMonotoneInMembers) {
  Rng rng(GetParam());
  std::vector<synthesis::Candidate> cands;
  for (std::uint32_t i = 0; i < 25; ++i) {
    synthesis::Candidate c;
    c.asset = i;
    c.position = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
    c.sensors = {{things::Modality::kCamera, rng.uniform(100, 400), 0.9, 0.01}};
    cands.push_back(std::move(c));
  }
  synthesis::MissionSpec spec;
  spec.sensing.push_back({things::Modality::kCamera, {{0, 0}, {1000, 1000}}, 0.5,
                          0.5, 6});
  synthesis::Composer comp(spec, cands, [](std::size_t) { return 1; });

  // Coverage of a growing prefix of members never decreases.
  std::vector<std::size_t> members;
  double prev = -1.0;
  for (std::size_t i = 0; i < cands.size(); i += 3) {
    members.push_back(i);
    const auto a = comp.evaluate(members);
    EXPECT_GE(a.sensing_coverage[0], prev - 1e-12);
    EXPECT_GE(a.sensing_coverage[0], 0.0);
    EXPECT_LE(a.sensing_coverage[0], 1.0);
    prev = a.sensing_coverage[0];
  }
}

TEST_P(SeedSweep, ComposerOutputIsSortedUniqueAndAdmissible) {
  Rng rng(GetParam() * 13 + 1);
  std::vector<synthesis::Candidate> cands;
  for (std::uint32_t i = 0; i < 30; ++i) {
    synthesis::Candidate c;
    c.asset = i;
    c.position = {rng.uniform(0, 800), rng.uniform(0, 800)};
    c.sensors = {{things::Modality::kCamera, rng.uniform(100, 300), 0.8, 0.01}};
    c.trust = rng.uniform(0.2, 1.0);
    cands.push_back(std::move(c));
  }
  synthesis::MissionSpec spec;
  spec.sensing.push_back({things::Modality::kCamera, {{0, 0}, {800, 800}}, 0.6, 0.5, 5});
  spec.min_member_trust = 0.5;
  synthesis::Composer comp(spec, cands, [](std::size_t) { return 1; });
  const auto c = comp.compose(synthesis::Solver::kGreedy);

  EXPECT_TRUE(std::is_sorted(c.member_indices.begin(), c.member_indices.end()));
  std::set<std::size_t> uniq(c.member_indices.begin(), c.member_indices.end());
  EXPECT_EQ(uniq.size(), c.member_indices.size());
  for (std::size_t m : c.member_indices) {
    EXPECT_GE(cands[m].trust, 0.5);  // admission gate respected
  }
}

// ------------------------------------------------------------- Potential ----

TEST_P(SeedSweep, WluIsExactPotential) {
  // For every unilateral deviation, utility delta == welfare delta.
  Rng rng(GetParam() * 7 + 3);
  const auto g = intent::TaskAllocationGame::random_instance(8, 4, rng);
  intent::JointAction joint(8, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    joint[i] = static_cast<std::size_t>(rng.uniform_int(0, 4));  // incl. idle
  }
  for (std::size_t agent = 0; agent < 8; ++agent) {
    for (std::size_t action = 0; action <= 4; ++action) {
      intent::JointAction moved = joint;
      moved[agent] = action;
      const double du = g.utility(agent, moved) - g.utility(agent, joint);
      const double dw = g.welfare(moved) - g.welfare(joint);
      EXPECT_NEAR(du, dw, 1e-10);
    }
  }
}

// ----------------------------------------------------------- Aggregation ----

TEST_P(SeedSweep, AggregatorsArePermutationInvariant) {
  Rng rng(GetParam() * 31 + 5);
  std::vector<learn::Vec> updates;
  for (int i = 0; i < 9; ++i) {
    learn::Vec v(4);
    for (double& x : v) x = rng.normal(0, 2);
    updates.push_back(std::move(v));
  }
  auto shuffled = updates;
  rng.shuffle(shuffled);
  for (auto rule : {learn::AggregationRule::kMean, learn::AggregationRule::kMedian,
                    learn::AggregationRule::kTrimmedMean,
                    learn::AggregationRule::kGeometricMedian}) {
    const auto a = learn::aggregate(rule, updates, 2);
    const auto b = learn::aggregate(rule, shuffled, 2);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << learn::to_string(rule) << " coord " << k;
    }
  }
}

TEST_P(SeedSweep, RobustAggregatesStayInCoordinateRange) {
  // Median/trimmed-mean outputs lie within the per-coordinate min/max of
  // the inputs (mean does too, trivially).
  Rng rng(GetParam() * 17 + 11);
  std::vector<learn::Vec> updates;
  for (int i = 0; i < 7; ++i) {
    learn::Vec v(3);
    for (double& x : v) x = rng.uniform(-10, 10);
    updates.push_back(std::move(v));
  }
  for (auto rule : {learn::AggregationRule::kMedian,
                    learn::AggregationRule::kTrimmedMean}) {
    const auto a = learn::aggregate(rule, updates, 2);
    for (std::size_t k = 0; k < a.size(); ++k) {
      double lo = 1e18, hi = -1e18;
      for (const auto& u : updates) {
        lo = std::min(lo, u[k]);
        hi = std::max(hi, u[k]);
      }
      EXPECT_GE(a[k], lo - 1e-12);
      EXPECT_LE(a[k], hi + 1e-12);
    }
  }
}

// ------------------------------------------------------ Truth discovery ----

TEST_P(SeedSweep, EmIsClaimOrderInvariant) {
  Rng rng(GetParam() * 41 + 2);
  social::ClaimGenConfig cfg;
  cfg.num_sources = 20;
  cfg.num_variables = 50;
  cfg.adversary_fraction = 0.2;
  auto g = social::generate_claims(cfg, rng);
  auto shuffled = g.claims;
  rng.shuffle(shuffled);
  const auto a = social::em_truth_discovery(g.claims, 20, 50);
  const auto b = social::em_truth_discovery(shuffled, 20, 50);
  for (std::size_t j = 0; j < 50; ++j) {
    EXPECT_NEAR(a.truth_probability[j], b.truth_probability[j], 1e-9);
  }
}

// --------------------------------------------------------------- Kalman ----

TEST_P(SeedSweep, KalmanSigmaStaysPositiveAndBounded) {
  Rng rng(GetParam() * 3 + 7);
  track::Kalman2D kf({0, 0}, 20.0, rng.uniform(0.01, 2.0), rng.uniform(1.0, 10.0));
  for (int i = 0; i < 200; ++i) {
    kf.predict(rng.uniform(0.1, 2.0));
    if (rng.bernoulli(0.7)) {
      kf.update({rng.uniform(-100, 100), rng.uniform(-100, 100)});
    }
    const auto e = kf.estimate();
    EXPECT_GT(e.position_sigma, 0.0);
    EXPECT_LT(e.position_sigma, 1e4);  // never blows up
    EXPECT_TRUE(std::isfinite(e.position.x));
    EXPECT_TRUE(std::isfinite(e.position.y));
  }
}

// -------------------------------------------------------------- Network ----

TEST_P(SeedSweep, MultiHopHopCountMatchesShortestPath) {
  sim::Simulator sim;
  net::Network net(sim, net::ChannelModel(2.0, 0.0), Rng(GetParam()));
  Rng layout(GetParam() * 19 + 23);
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 25; ++i) {
    ids.push_back(net.add_node({layout.uniform(0, 600), layout.uniform(0, 600)},
                               {.range_m = 220, .base_loss = 0.0}));
  }
  const auto topo = net.connectivity();
  const auto bfs_hops = topo.hop_distances(ids[0]);
  // The network routes along DISTANCE-weighted shortest paths, so the hop
  // count must equal that path's length and can never beat the BFS bound.
  const auto sp = topo.shortest_paths(ids[0]);

  for (int trial = 0; trial < 5; ++trial) {
    const auto dst =
        ids[static_cast<std::size_t>(layout.uniform_int(1, 24))];
    if (bfs_hops[dst] < 0) {
      EXPECT_FALSE(net.route_and_send(ids[0], dst, {.kind = "p", .size_bytes = 8}));
      continue;
    }
    const int expected =
        static_cast<int>(sp.path_to(dst).size()) - 1;
    int got_hops = -1;
    net.set_handler(dst, [&](const net::Message& m) { got_hops = m.hops; });
    ASSERT_TRUE(net.route_and_send(ids[0], dst, {.kind = "p", .size_bytes = 8}));
    sim.run();
    EXPECT_EQ(got_hops, expected);
    EXPECT_GE(got_hops, bfs_hops[dst]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 5ULL, 8ULL, 13ULL));

// ------------------------------------------- Determinism under parallelism ----
//
// The ParallelRunner promises that worker count is unobservable: for a fixed
// seed set, the aggregated metrics and payloads are bit-identical across
// {1, 2, 8} workers, identical to a hand-rolled serial loop, and identical
// run-to-run. The replication body below is deliberately nontrivial — its own
// Simulator with tagged schedule/cancel churn plus its own Rng substreams —
// so any cross-replication sharing or ordering leak would perturb the bits.

namespace det {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

double replication_body(sim::ReplicationContext& ctx) {
  sim::Simulator s;
  sim::Rng rng = ctx.make_rng();
  const sim::TagId tick = s.intern("det.tick");
  const sim::TagId rto = s.intern("det.rto");
  std::vector<sim::EventId> pending;
  double acc = 0;
  for (int i = 0; i < 200; ++i) {
    const auto id = s.schedule_in(
        sim::Duration::micros(rng.uniform_int(1, 500'000)),
        [&acc, &rng] { acc += rng.uniform(); }, i % 2 == 0 ? tick : rto);
    pending.push_back(id);
  }
  for (const auto id : pending) {
    if (rng.bernoulli(0.25)) s.cancel(id);
  }
  s.run();
  ctx.metrics.count("executed", static_cast<double>(s.executed_count()));
  ctx.metrics.observe("acc", acc);
  ctx.metrics.observe("final_time_s", s.now().to_seconds());
  return acc + static_cast<double>(s.executed_count());
}

}  // namespace det

TEST(ParallelDeterminism, WorkerCountIsUnobservableAndRunsAreRepeatable) {
  const auto seeds = sim::ParallelRunner::seed_range(100, 12);

  // Reference: a hand-rolled serial loop, no runner involved.
  sim::MetricsRegistry expected_merged;
  std::vector<std::uint64_t> expected_bits;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    sim::ReplicationContext ctx;
    ctx.seed = seeds[i];
    ctx.index = i;
    expected_bits.push_back(det::bits_of(det::replication_body(ctx)));
    expected_merged.merge_from(ctx.metrics);
  }
  const std::uint64_t expected_digest = expected_merged.digest();

  for (std::size_t workers : {1u, 2u, 8u}) {
    // Run each configuration twice to catch run-to-run nondeterminism.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const sim::ParallelRunner runner(workers);
      const auto outcome = runner.run<double>(seeds, det::replication_body);
      EXPECT_EQ(outcome.failures, 0u);
      ASSERT_EQ(outcome.replications.size(), seeds.size());
      EXPECT_EQ(outcome.merged.digest(), expected_digest)
          << "workers=" << workers << " repeat=" << repeat;
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        EXPECT_EQ(det::bits_of(outcome.replications[i].payload),
                  expected_bits[i])
            << "workers=" << workers << " repeat=" << repeat << " rep=" << i;
      }
    }
  }
}

// ------------------------------------------------- Golden net sweeps ----
//
// Each sweep runs net::Network's one production path (grid enumeration +
// patched edge store) and checks its merged digest against a hand-rolled
// serial loop AND a committed golden value: a change to the production
// path moves the serial loop with it, but not the golden. The goldens
// were recorded from Network's former brute-force + full-rebuild runtime
// modes, which every mode matched; the O(N^2) scan survives as the
// brute_connectivity oracle in tests/net_oracle.h.

using SweepBody = std::function<double(sim::ReplicationContext&)>;

/// Runs `reference_body` over `seeds` in a hand-rolled serial loop and
/// `body` on a pool of `workers`; the pool must reproduce the serial
/// payloads, and both merged digests must equal `golden`.
void expect_golden_sweep(const std::vector<std::uint64_t>& seeds,
                         std::size_t workers, std::uint64_t golden,
                         const SweepBody& reference_body, const SweepBody& body) {
  sim::MetricsRegistry ref_merged;
  std::vector<double> ref_payloads;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    sim::ReplicationContext ctx;
    ctx.seed = seeds[i];
    ctx.index = i;
    ref_payloads.push_back(reference_body(ctx));
    ref_merged.merge_from(ctx.metrics);
  }
  EXPECT_EQ(ref_merged.digest(), golden) << "serial reference";

  const sim::ParallelRunner runner(workers);
  const auto outcome = runner.run<double>(seeds, body);
  EXPECT_EQ(outcome.failures, 0u);
  ASSERT_EQ(outcome.replications.size(), seeds.size());
  EXPECT_EQ(outcome.merged.digest(), golden) << "workers=" << workers;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(outcome.replications[i].payload, ref_payloads[i])
        << "workers=" << workers << " rep=" << i;
  }
}

// Spatial index: a broadcast-heavy mobile scenario; the grid must change
// wall time only.

namespace spatial {

double substrate_body(sim::ReplicationContext& ctx) {
  sim::Simulator s;
  net::Network network(s, net::ChannelModel(), ctx.make_rng());
  sim::Rng layout(ctx.seed ^ 0xD15C0ULL);
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 60; ++i) {
    ids.push_back(network.add_node({layout.uniform(0, 1000), layout.uniform(0, 1000)},
                                   {.range_m = 250, .base_loss = 0.1}));
  }
  std::uint64_t delivered = 0;
  for (const auto id : ids) {
    network.set_handler(id, [&](const net::Message&) { ++delivered; });
  }
  double edges = 0;
  for (int round = 0; round < 5; ++round) {
    for (const auto id : ids) {
      network.set_position(id, {layout.uniform(0, 1000), layout.uniform(0, 1000)});
    }
    for (const auto id : ids) {
      network.broadcast(id, net::Message{.kind = "hello", .size_bytes = 16});
      network.route_and_send(ids[0], id, net::Message{.kind = "data", .size_bytes = 64});
    }
    s.run();
    edges += static_cast<double>(network.connectivity().edge_count());
  }
  ctx.metrics.merge_from(network.metrics());
  ctx.metrics.count("delivered", static_cast<double>(delivered));
  ctx.metrics.count("edges", edges);
  return static_cast<double>(delivered) + edges;
}

}  // namespace spatial

/// Merged digest of the 8-seed sweep below, recorded from the brute-force
/// enumeration mode.
constexpr std::uint64_t kSpatialGolden = 0xdf223bc455228c23ULL;

class SpatialIndexEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpatialIndexEquivalence, GridAndBruteDigestsIdenticalUnderWorkers) {
  expect_golden_sweep(sim::ParallelRunner::seed_range(4242, 8), GetParam(),
                      kSpatialGolden, spatial::substrate_body, spatial::substrate_body);
}

INSTANTIATE_TEST_SUITE_P(Workers, SpatialIndexEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

// Connectivity maintenance: liveness flips and mobility interleaved into a
// broadcast storm, multi-hop sends over the shifting topology. The patched
// edge store must reproduce the digests, payloads and epochs of the
// brute-force + full-rebuild reference.

namespace churn {

double substrate_body(sim::ReplicationContext& ctx, bool layered) {
  sim::Simulator s;
  net::Network network(s, net::ChannelModel(), ctx.make_rng());
  sim::Rng layout(ctx.seed ^ 0xC4012ULL);
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(network.add_node({layout.uniform(0, 900), layout.uniform(0, 900)},
                                   {.range_m = 250, .base_loss = 0.1}));
  }
  std::uint64_t delivered = 0;
  for (const auto id : ids) {
    network.set_handler(id, [&](const net::Message&) { ++delivered; });
  }
  double edges = 0;
  sim::Rng mutate(ctx.seed ^ 0x5EED5ULL);
  for (int round = 0; round < 6; ++round) {
    // Churn mid-broadcast-storm: liveness flips and moves interleave with
    // the traffic, so routes are computed over a topology that changes
    // between — and because of — the sends. Down senders/receivers and
    // self-sends to down nodes are all exercised deterministically.
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const net::NodeId id = ids[k];
      const double roll = mutate.uniform(0.0, 1.0);
      if (roll < 0.25) {
        network.set_node_up(id, !network.node_up(id));
      } else if (roll < 0.75) {
        network.set_position(id, {mutate.uniform(0, 900), mutate.uniform(0, 900)});
      }
      if (layered && k % 7 == 0) {
        // Single-layer gateway churn: with no second layer to bridge, the
        // flips must change no link, bump no epoch, and draw no RNG —
        // i.e. be entirely unobservable next to the flat run.
        network.set_gateway(id, !network.is_gateway(id));
      }
      if (k % 5 == 0) {
        network.broadcast(id, net::Message{.kind = "hello", .size_bytes = 16});
      }
      const net::NodeId dst = ids[(k * 7 + static_cast<std::size_t>(round)) % ids.size()];
      network.route_and_send(id, dst, net::Message{.kind = "data", .size_bytes = 48});
    }
    s.run();
    edges += static_cast<double>(network.connectivity().edge_count());
  }
  ctx.metrics.merge_from(network.metrics());
  ctx.metrics.count("delivered", static_cast<double>(delivered));
  ctx.metrics.count("edges", edges);
  ctx.metrics.count("epoch", static_cast<double>(network.topology_epoch()));
  return static_cast<double>(delivered) + edges +
         static_cast<double>(network.topology_epoch());
}

}  // namespace churn

/// Merged digests of the churn sweeps below, recorded from the
/// brute-force + full-rebuild mode (all four modes agreed).
constexpr std::uint64_t kChurnGolden = 0x835e781d8b20cb25ULL;
constexpr std::uint64_t kLayeredGolden = 0x7ca6070ab6a86ab4ULL;

class ConnectivityMaintenanceEquivalence
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConnectivityMaintenanceEquivalence, AllModesDigestsIdenticalUnderChurn) {
  const SweepBody flat = [](sim::ReplicationContext& ctx) {
    return churn::substrate_body(ctx, /*layered=*/false);
  };
  expect_golden_sweep(sim::ParallelRunner::seed_range(31337, 8), GetParam(),
                      kChurnGolden, flat, flat);
}

INSTANTIATE_TEST_SUITE_P(Workers, ConnectivityMaintenanceEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

// Layered: a one-layer layered network IS a flat network. The per-node
// layer slab, the link_allowed gate, and gateway flips with nothing to
// bridge (every 7th node per round) must all be unobservable: the layered
// body on the pool must match the FLAT body's serial loop and golden.

class LayeredEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LayeredEquivalence, OneLayerNetworkIsDigestIdenticalToFlat) {
  const SweepBody flat = [](sim::ReplicationContext& ctx) {
    return churn::substrate_body(ctx, /*layered=*/false);
  };
  const SweepBody layered = [](sim::ReplicationContext& ctx) {
    return churn::substrate_body(ctx, /*layered=*/true);
  };
  expect_golden_sweep(sim::ParallelRunner::seed_range(42424, 8), GetParam(),
                      kLayeredGolden, flat, layered);
}

INSTANTIATE_TEST_SUITE_P(Workers, LayeredEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

// ------------------------------------------ Checkpoint equivalence ----
//
// The checkpoint layer promises digest identity: saving an adversarial
// scenario mid-jamming-window and mid-sybil-wave (t = 55 s: jamming is on,
// the first Sybil wave has landed, the second wave / both kills / the
// jamming-off edge are still pending), then restoring — into a FRESH stack
// built by the same scenario code, or rewinding the SAME stack in place —
// and running to the horizon must reproduce the uninterrupted run's digest
// bit-for-bit. Swept over 8 seeds and worker counts {1, 2, 8}, with the
// merged-metrics digest compared against the serial loop and the golden
// value recorded when the sweep also covered the brute-force enumeration
// mode (both modes agreed).

namespace ckpt {

/// One replication: uninterrupted vs fresh-stack branch vs in-place rewind.
/// Returns the number of digest mismatches (0 == the promise holds).
double equivalence_body(sim::ReplicationContext& ctx) {
  using iobt::testing::CheckpointScenario;
  const sim::SimTime snap_at = sim::SimTime::seconds(55);
  const sim::SimTime horizon = sim::SimTime::seconds(120);

  // save() is non-destructive, so the source stack doubles as the
  // uninterrupted reference.
  CheckpointScenario source(ctx.seed);
  source.sim.run_until(snap_at);
  const sim::Snapshot snap = source.sim.checkpoint().save();
  source.sim.run_until(horizon);
  const std::uint64_t uninterrupted = source.digest();

  CheckpointScenario branch(ctx.seed);
  branch.sim.checkpoint().restore(snap);
  branch.sim.run_until(horizon);
  const std::uint64_t fresh_stack = branch.digest();

  source.sim.checkpoint().restore(snap);  // rewind 120 s -> 55 s
  source.sim.run_until(horizon);
  const std::uint64_t rewound = source.digest();

  std::uint64_t mismatches = 0;
  if (fresh_stack != uninterrupted) ++mismatches;
  if (rewound != uninterrupted) ++mismatches;
  // Fold the digest into the merged metrics so the cross-worker and
  // golden comparisons below also prove the scenario itself is
  // deterministic (not merely self-consistent per process).
  ctx.metrics.count("ckpt.digest_lo",
                    static_cast<double>(uninterrupted & 0xffffffffu));
  ctx.metrics.count("ckpt.digest_hi",
                    static_cast<double>(uninterrupted >> 32));
  ctx.metrics.count("ckpt.mismatches", static_cast<double>(mismatches));
  return static_cast<double>(mismatches);
}

}  // namespace ckpt

class CheckpointEquivalence : public ::testing::TestWithParam<std::size_t> {};

constexpr std::uint64_t kCheckpointGolden = 0xa4aaea9f27340b44ULL;

TEST_P(CheckpointEquivalence, RestoreDigestsIdenticalUnderWorkersAndGrid) {
  // The golden digest folds in zero mismatches for every seed, so a
  // restore that diverges fails here even when it diverges the same way
  // in the serial loop.
  expect_golden_sweep(sim::ParallelRunner::seed_range(777, 8), GetParam(),
                      kCheckpointGolden, ckpt::equivalence_body, ckpt::equivalence_body);
}

INSTANTIATE_TEST_SUITE_P(Workers, CheckpointEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

// The cross-module invariants above sweep 6 seeds serially via TEST_P; the
// runner lets the same style of sweep go wide. These run 24 seeds on the
// pool and assert the invariant on the aggregated outcome.

TEST(RunnerSweep, AggregatorsPermutationInvariantAcrossManySeeds) {
  const sim::ParallelRunner runner(4);
  const auto outcome = runner.run<double>(
      sim::ParallelRunner::seed_range(1, 24), [](sim::ReplicationContext& ctx) {
        Rng rng(ctx.seed * 31 + 5);
        std::vector<learn::Vec> updates;
        for (int i = 0; i < 9; ++i) {
          learn::Vec v(4);
          for (double& x : v) x = rng.normal(0, 2);
          updates.push_back(std::move(v));
        }
        auto shuffled = updates;
        rng.shuffle(shuffled);
        double max_diff = 0;
        for (auto rule :
             {learn::AggregationRule::kMean, learn::AggregationRule::kMedian,
              learn::AggregationRule::kTrimmedMean,
              learn::AggregationRule::kGeometricMedian}) {
          const auto a = learn::aggregate(rule, updates, 2);
          const auto b = learn::aggregate(rule, shuffled, 2);
          for (std::size_t k = 0; k < a.size(); ++k) {
            max_diff = std::max(max_diff, std::abs(a[k] - b[k]));
          }
        }
        return max_diff;
      });
  EXPECT_EQ(outcome.failures, 0u);
  for (const auto& r : outcome.replications) {
    EXPECT_LT(r.payload, 1e-9) << "seed " << r.seed;
  }
}

TEST(RunnerSweep, ComposerAdmissionGateHoldsAcrossManySeeds) {
  const sim::ParallelRunner runner(4);
  const auto outcome = runner.run<std::size_t>(
      sim::ParallelRunner::seed_range(1, 24), [](sim::ReplicationContext& ctx) {
        Rng rng(ctx.seed * 13 + 1);
        std::vector<synthesis::Candidate> cands;
        for (std::uint32_t i = 0; i < 30; ++i) {
          synthesis::Candidate c;
          c.asset = i;
          c.position = {rng.uniform(0, 800), rng.uniform(0, 800)};
          c.sensors = {
              {things::Modality::kCamera, rng.uniform(100, 300), 0.8, 0.01}};
          c.trust = rng.uniform(0.2, 1.0);
          cands.push_back(std::move(c));
        }
        synthesis::MissionSpec spec;
        spec.sensing.push_back(
            {things::Modality::kCamera, {{0, 0}, {800, 800}}, 0.6, 0.5, 5});
        spec.min_member_trust = 0.5;
        synthesis::Composer comp(spec, cands, [](std::size_t) { return 1; });
        const auto c = comp.compose(synthesis::Solver::kGreedy);
        std::size_t violations = 0;
        if (!std::is_sorted(c.member_indices.begin(), c.member_indices.end())) {
          ++violations;
        }
        std::set<std::size_t> uniq(c.member_indices.begin(),
                                   c.member_indices.end());
        if (uniq.size() != c.member_indices.size()) ++violations;
        for (std::size_t m : c.member_indices) {
          if (cands[m].trust < 0.5) ++violations;
        }
        return violations;
      });
  EXPECT_EQ(outcome.failures, 0u);
  for (const auto& r : outcome.replications) {
    EXPECT_EQ(r.payload, 0u) << "seed " << r.seed;
  }
}

}  // namespace
}  // namespace iobt
