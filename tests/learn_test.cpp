// Tests for the learning substrate: models, robust aggregation, federated
// and gossip training under attack and churn, cost-aware topology
// activation, and IBP safety certification.

#include <gtest/gtest.h>

#include "learn/aggregation.h"
#include "learn/cost.h"
#include "learn/data.h"
#include "learn/federated.h"
#include "learn/model.h"
#include "learn/adversarial.h"
#include "learn/safety.h"

namespace iobt::learn {
namespace {

using sim::Rng;

// ----------------------------------------------------------------- Data ----

TEST(Data, BlobsAreLearnable) {
  Rng rng(1);
  const auto train = make_blobs(500, 4, 3.0, 0.02, rng);
  const auto test = make_blobs(200, 4, 3.0, 0.02, rng);
  LogisticModel m(4);
  Rng srng(2);
  m.sgd(train, 500, 16, 0.2, srng);
  EXPECT_GT(accuracy(test, [&](const Vec& x) { return m.predict(x); }), 0.9);
}

TEST(Data, ShardingPreservesTotalCount) {
  Rng rng(3);
  const auto data = make_blobs(1000, 3, 2.0, 0.0, rng);
  const auto shards = shard(data, 7, 0.5, rng);
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  EXPECT_EQ(total, 1000u);
}

TEST(Data, LabelSkewSeparatesLabels) {
  Rng rng(4);
  const auto data = make_blobs(2000, 3, 2.0, 0.0, rng);
  const auto shards = shard(data, 4, 1.0, rng);
  // With full skew, the first half of shards is ~all label 0, the second
  // half ~all label 1 (contiguous blocks: the hard case for gossip).
  for (std::size_t s = 0; s < 4; ++s) {
    if (shards[s].empty()) continue;
    double ones = 0;
    for (const auto& e : shards[s]) ones += e.y;
    const double frac = ones / static_cast<double>(shards[s].size());
    if (s < 2) {
      EXPECT_LT(frac, 0.1) << s;
    } else {
      EXPECT_GT(frac, 0.9) << s;
    }
  }
}

// --------------------------------------------------------------- Models ----

TEST(Logistic, GradientDescendsLoss) {
  Rng rng(5);
  const auto data = make_blobs(300, 3, 2.0, 0.05, rng);
  LogisticModel m(3);
  const double before = m.loss(data);
  Rng srng(6);
  m.sgd(data, 200, 16, 0.2, srng);
  EXPECT_LT(m.loss(data), before);
}

TEST(Logistic, GradientMatchesFiniteDifferences) {
  Rng rng(7);
  const auto data = make_blobs(50, 3, 1.5, 0.1, rng);
  LogisticModel m(3);
  Vec w = {0.3, -0.2, 0.5, 0.1};
  m.set_params(w);
  const Vec g = m.gradient(data);
  const double eps = 1e-6;
  for (std::size_t k = 0; k < w.size(); ++k) {
    Vec wp = w, wm = w;
    wp[k] += eps;
    wm[k] -= eps;
    LogisticModel mp(3), mm(3);
    mp.set_params(wp);
    mm.set_params(wm);
    const double num = (mp.loss(data) - mm.loss(data)) / (2 * eps);
    EXPECT_NEAR(g[k], num, 1e-5) << "coord " << k;
  }
}

TEST(Mlp, GradientMatchesFiniteDifferences) {
  Rng rng(8);
  const auto data = make_blobs(30, 2, 1.5, 0.1, rng);
  MlpModel m({2, 5, 1});
  Rng init(9);
  m.randomize(init);
  const Vec g = m.gradient(data);
  const Vec w = m.params();
  const double eps = 1e-6;
  // Spot-check a spread of coordinates (full sweep is slow and redundant).
  for (std::size_t k = 0; k < w.size(); k += 3) {
    Vec wp = w, wm = w;
    wp[k] += eps;
    wm[k] -= eps;
    MlpModel mp({2, 5, 1}), mm({2, 5, 1});
    mp.set_params(wp);
    mm.set_params(wm);
    const double num = (mp.loss(data) - mm.loss(data)) / (2 * eps);
    EXPECT_NEAR(g[k], num, 1e-4) << "coord " << k;
  }
}

TEST(Mlp, LearnsNonlinearRings) {
  Rng rng(10);
  const auto train = make_rings(2000, 2, rng);
  const auto test = make_rings(400, 2, rng);
  MlpModel m({2, 32, 1});
  Rng init(11);
  m.randomize(init);
  Rng srng(12);
  m.sgd(train, 12000, 32, 0.2, srng);
  // The annulus needs a genuinely nonlinear boundary; a logistic model
  // caps near the base rate (~0.55), so 0.8 demonstrates the MLP works.
  EXPECT_GT(accuracy(test, [&](const Vec& x) { return m.predict(x); }), 0.8);
}

TEST(Mlp, OutputBoundsContainPointEvaluations) {
  Rng rng(13);
  MlpModel m({3, 8, 1});
  m.randomize(rng);
  Rng prng(14);
  for (int trial = 0; trial < 50; ++trial) {
    Vec center(3), lo(3), hi(3);
    for (std::size_t k = 0; k < 3; ++k) {
      center[k] = prng.uniform(-2, 2);
      lo[k] = center[k] - 0.1;
      hi[k] = center[k] + 0.1;
    }
    const auto [plo, phi] = m.output_bounds(lo, hi);
    // Sample points inside the box: prediction must lie within bounds.
    for (int s = 0; s < 10; ++s) {
      Vec x(3);
      for (std::size_t k = 0; k < 3; ++k) x[k] = prng.uniform(lo[k], hi[k]);
      const double p = m.predict(x);
      EXPECT_GE(p, plo - 1e-9);
      EXPECT_LE(p, phi + 1e-9);
    }
  }
}

// ------------------------------------------------------------ Aggregation ----

TEST(Aggregation, MeanAndMedianBasics) {
  const std::vector<Vec> u = {{1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(aggregate_mean(u), (Vec{2, 20}));
  EXPECT_EQ(aggregate_median(u), (Vec{2, 20}));
}

TEST(Aggregation, MedianIgnoresOneOutlier) {
  const std::vector<Vec> u = {{1, 1}, {1.1, 1.1}, {1000, -1000}};
  const Vec m = aggregate_median(u);
  EXPECT_NEAR(m[0], 1.1, 1e-9);  // median of {1, 1.1, 1000}
  EXPECT_NEAR(m[1], 1.0, 1e-9);  // median of {-1000, 1, 1.1}
}

TEST(Aggregation, TrimmedMeanDropsExtremes) {
  const std::vector<Vec> u = {{0}, {1}, {2}, {3}, {100}};
  const Vec t = aggregate_trimmed_mean(u, 1);
  EXPECT_DOUBLE_EQ(t[0], 2.0);  // mean of {1,2,3}
  EXPECT_THROW(aggregate_trimmed_mean(u, 3), std::invalid_argument);
}

TEST(Aggregation, KrumPicksClusterMember) {
  // Four honest vectors near (1,1); one Byzantine far away.
  const std::vector<Vec> u = {{1, 1}, {1.1, 0.9}, {0.9, 1.1}, {1.05, 1.0}, {50, -50}};
  const Vec k = aggregate_krum(u, 1);
  EXPECT_LT(std::abs(k[0] - 1.0), 0.2);
  EXPECT_LT(std::abs(k[1] - 1.0), 0.2);
}

TEST(Aggregation, KrumSingleInput) {
  EXPECT_EQ(aggregate_krum({{7, 7}}, 0), (Vec{7, 7}));
}

TEST(Aggregation, GeometricMedianRobustToOutlier) {
  const std::vector<Vec> u = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {1000, 1000}};
  const Vec g = aggregate_geometric_median(u);
  EXPECT_LT(norm(g), 3.0);  // stays near the honest cluster
}

TEST(Aggregation, GeometricMedianOfIdenticalPoints) {
  const std::vector<Vec> u = {{2, 3}, {2, 3}, {2, 3}};
  const Vec g = aggregate_geometric_median(u);
  EXPECT_NEAR(g[0], 2.0, 1e-6);
  EXPECT_NEAR(g[1], 3.0, 1e-6);
}

TEST(Aggregation, DispatcherDegradesTrimGracefully) {
  // 3 inputs with f=2 would need > 4 inputs; dispatcher shrinks the trim.
  const std::vector<Vec> u = {{1}, {2}, {3}};
  EXPECT_NO_THROW(aggregate(AggregationRule::kTrimmedMean, u, 2));
}

// ---------------------------------------------------------- Distributed ----

struct FedFixture : ::testing::Test {
  // Separation 3.5 with 2% label noise: Bayes accuracy ~0.94, leaving
  // headroom between "converged" (>0.9) and "collapsed" (<0.8).
  Rng data_rng{21};
  Dataset train = make_blobs(1200, 4, 3.5, 0.02, data_rng);
  Dataset test = make_blobs(400, 4, 3.5, 0.02, data_rng);
};

TEST_F(FedFixture, CleanFederatedTrainingConverges) {
  FederatedConfig cfg;
  cfg.rounds = 25;
  Rng rng(22);
  const auto r = federated_train(train, test, 4, cfg, rng);
  EXPECT_GT(r.final_accuracy, 0.9);
  EXPECT_GT(r.bytes_communicated, 0u);
}

TEST_F(FedFixture, MeanCollapsesUnderByzantineSignFlip) {
  FederatedConfig cfg;
  cfg.rounds = 25;
  cfg.byzantine_count = 3;  // 30% attackers
  cfg.rule = AggregationRule::kMean;
  Rng rng(23);
  const auto r = federated_train(train, test, 4, cfg, rng);
  EXPECT_LT(r.final_accuracy, 0.8);  // the paper's vulnerability claim
}

TEST_F(FedFixture, KrumAndMedianSurviveByzantine) {
  for (auto rule : {AggregationRule::kKrum, AggregationRule::kMedian,
                    AggregationRule::kTrimmedMean}) {
    FederatedConfig cfg;
    cfg.rounds = 25;
    cfg.byzantine_count = 3;
    cfg.assumed_f = 3;
    cfg.rule = rule;
    Rng rng(24);
    const auto r = federated_train(train, test, 4, cfg, rng);
    EXPECT_GT(r.final_accuracy, 0.85) << to_string(rule);
  }
}

TEST_F(FedFixture, GossipConvergesOnConnectedTopology) {
  const auto topo = net::Topology::ring(8);
  GossipConfig cfg;
  cfg.rounds = 30;
  Rng rng(25);
  const auto r = gossip_train(topo, train, test, 4, cfg, rng);
  EXPECT_GT(r.final_accuracy, 0.88);
}

TEST_F(FedFixture, GossipToleratesLinkChurn) {
  const auto topo = net::Topology::ring(8);
  GossipConfig cfg;
  cfg.rounds = 40;
  cfg.link_up_probability = 0.5;  // half the links down each round
  Rng rng(26);
  const auto r = gossip_train(topo, train, test, 4, cfg, rng);
  EXPECT_GT(r.final_accuracy, 0.85);  // slower but still converges
}

TEST_F(FedFixture, NonIidShardingSlowsButDoesNotPreventLearning) {
  FederatedConfig iid, skew;
  iid.rounds = skew.rounds = 25;
  skew.label_skew = 0.9;
  Rng r1(27), r2(27);
  const auto a = federated_train(train, test, 4, iid, r1);
  const auto b = federated_train(train, test, 4, skew, r2);
  EXPECT_GT(b.final_accuracy, 0.8);
  EXPECT_GE(a.final_accuracy + 0.03, b.final_accuracy);
}

TEST(Disagreement, ZeroForIdenticalParams) {
  EXPECT_DOUBLE_EQ(parameter_disagreement({{1, 2}, {1, 2}}), 0.0);
  EXPECT_GT(parameter_disagreement({{0, 0}, {3, 4}}), 4.9);
}

// ----------------------------------------------------------- Cost-aware ----

TEST(Cost, DenserTopologyCostsMoreButConvergesFaster) {
  Rng data_rng(41);
  const auto train = make_blobs(1200, 4, 2.5, 0.05, data_rng);
  const auto test = make_blobs(300, 4, 2.5, 0.05, data_rng);
  const std::size_t n = 10;
  Rng r1(42), r2(42);
  const auto ring = evaluate_topology({"ring", net::Topology::ring(n), 1.0}, train,
                                      test, 4, 15, 5, 16, 0.1, 0.8, r1);
  net::Topology full(n);
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) full.add_edge(a, b);
  }
  const auto dense = evaluate_topology({"full", full, 1.0}, train, test, 4, 15, 5, 16,
                                       0.1, 0.8, r2);
  EXPECT_GT(dense.points.back().cumulative_bytes, ring.points.back().cumulative_bytes);
  // Dense consensus reaches high accuracy at least as fast (per round).
  EXPECT_GE(dense.points[5].accuracy + 0.05, ring.points[5].accuracy);
}

TEST(Cost, AdaptivePolicyEscalatesWhenStalled) {
  Rng data_rng(43);
  const auto train = make_blobs(1200, 4, 2.5, 0.05, data_rng);
  const auto test = make_blobs(300, 4, 2.5, 0.05, data_rng);
  const std::size_t n = 10;
  net::Topology full(n);
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) full.add_edge(a, b);
  }
  std::vector<NamedTopology> options = {{"ring", net::Topology::ring(n), 1.0},
                                        {"full", full, 1.0}};
  Rng rng(44);
  const auto res = cost_aware_train(options, train, test, 4, 40, 5, 16, 0.1, 0.9, 3,
                                    0.01, rng);
  EXPECT_GT(res.final_accuracy, 0.84);
  // Started cheap.
  EXPECT_EQ(res.active_topology_per_round.front(), 0u);
}

// --------------------------------------------------------------- Safety ----

struct SafetyFixture : ::testing::Test {
  MlpModel model{{2, 8, 1}};
  Dataset train, probe;

  void SetUp() override {
    Rng rng(51);
    train = make_blobs(800, 2, 4.0, 0.0, rng);
    probe = make_blobs(100, 2, 4.0, 0.0, rng);
    Rng init(52);
    model.randomize(init);
    Rng srng(53);
    model.sgd(train, 3000, 32, 0.2, srng);
  }
};

TEST_F(SafetyFixture, CertifiedFractionDecreasesWithEpsilon) {
  const auto r0 = certify_robustness(model, probe, 0.0);
  const auto r1 = certify_robustness(model, probe, 0.1);
  const auto r2 = certify_robustness(model, probe, 0.5);
  EXPECT_GT(r0.clean_accuracy, 0.9);
  EXPECT_NEAR(r0.certified_fraction, r0.clean_accuracy, 1e-9);  // eps=0: cert==clean
  EXPECT_GE(r0.certified_fraction, r1.certified_fraction);
  EXPECT_GE(r1.certified_fraction, r2.certified_fraction);
}

TEST_F(SafetyFixture, CertificationIsSound) {
  // Soundness: if certified at eps, every sampled perturbation within the
  // box keeps the prediction on the correct side.
  Rng rng(54);
  const double eps = 0.15;
  for (const auto& e : probe) {
    if (!certified_at(model, e.x, e.y, eps)) continue;
    for (int s = 0; s < 20; ++s) {
      Vec x = e.x;
      for (double& v : x) v += rng.uniform(-eps, eps);
      EXPECT_EQ(model.predict(x) > 0.5, e.y > 0.5);
    }
  }
}

TEST_F(SafetyFixture, MaxCertifiedEpsilonIsMonotoneBoundary) {
  const auto& e = probe.front();
  const double eps_max = max_certified_epsilon(model, e.x, e.y, 2.0);
  if (eps_max > 0.0) {
    EXPECT_TRUE(certified_at(model, e.x, e.y, eps_max * 0.9));
    EXPECT_FALSE(certified_at(model, e.x, e.y, eps_max + 0.01));
  }
}

TEST(Safety, MisclassifiedCenterHasZeroEpsilon) {
  MlpModel m({2, 4, 1});
  Rng rng(55);
  m.randomize(rng);
  // Find a point the random model misclassifies.
  Rng prng(56);
  for (int trial = 0; trial < 100; ++trial) {
    Vec x = {prng.uniform(-2, 2), prng.uniform(-2, 2)};
    const double y = m.predict(x) > 0.5 ? 0.0 : 1.0;  // force a mismatch
    EXPECT_DOUBLE_EQ(max_certified_epsilon(m, x, y), 0.0);
    break;
  }
}


// ----------------------------------------------------------- Adversarial ----

struct AdvFixture : ::testing::Test {
  MlpModel model{{2, 16, 1}};
  Dataset train, probe;

  void SetUp() override {
    Rng rng(61);
    train = make_blobs(1000, 2, 4.0, 0.0, rng);
    probe = make_blobs(200, 2, 4.0, 0.0, rng);
    Rng init(62);
    model.randomize(init);
    Rng srng(63);
    model.sgd(train, 4000, 32, 0.2, srng);
  }
};

TEST_F(AdvFixture, InputGradientMatchesFiniteDifferences) {
  const Example& e = probe.front();
  const Vec g = model.input_gradient(e);
  const double eps = 1e-6;
  for (std::size_t k = 0; k < e.x.size(); ++k) {
    Example ep = e, em = e;
    ep.x[k] += eps;
    em.x[k] -= eps;
    const double num = (model.loss({ep}) - model.loss({em})) / (2 * eps);
    EXPECT_NEAR(g[k], num, 1e-4) << "coord " << k;
  }
}

TEST_F(AdvFixture, FgsmStaysInEpsilonBall) {
  const Example& e = probe.front();
  const Vec adv = fgsm(model, e, 0.3);
  for (std::size_t k = 0; k < adv.size(); ++k) {
    EXPECT_LE(std::abs(adv[k] - e.x[k]), 0.3 + 1e-12);
  }
}

TEST_F(AdvFixture, PgdRespectsProjection) {
  PgdConfig cfg{.epsilon = 0.2, .step = 0.1, .iterations = 20};
  const Example& e = probe.front();
  const Vec adv = pgd(model, e, cfg);
  for (std::size_t k = 0; k < adv.size(); ++k) {
    EXPECT_LE(std::abs(adv[k] - e.x[k]), 0.2 + 1e-12);
  }
}

TEST_F(AdvFixture, PgdDegradesAccuracyMoreThanFgsm) {
  const double clean = accuracy(probe, [&](const Vec& x) { return model.predict(x); });
  std::size_t fgsm_ok = 0;
  for (const Example& e : probe) {
    if ((model.predict(fgsm(model, e, 0.5)) > 0.5) == (e.y > 0.5)) ++fgsm_ok;
  }
  const double fgsm_acc = static_cast<double>(fgsm_ok) / probe.size();
  const double pgd_acc = robust_accuracy_pgd(
      model, probe, {.epsilon = 0.5, .step = 0.1, .iterations = 20});
  EXPECT_LT(fgsm_acc, clean);
  EXPECT_LE(pgd_acc, fgsm_acc + 0.02);  // PGD at least as strong as FGSM
}

TEST(AdversarialTraining, ImprovesRobustAccuracyOnNonlinearTask) {
  // Well-separated blobs leave no room above the robust-Bayes ceiling, so
  // this test uses the rings task, where natural training yields a ragged
  // boundary that PGD exploits and adversarial training smooths.
  Rng rng(61);
  const auto train = make_rings(2500, 2, rng);
  const auto probe = make_rings(400, 2, rng);
  MlpModel model({2, 32, 1});
  Rng init(62);
  model.randomize(init);
  Rng srng(63);
  model.sgd(train, 10000, 32, 0.2, srng);

  const PgdConfig attack{.epsilon = 0.2, .step = 0.07, .iterations = 15};
  const double before = robust_accuracy_pgd(model, probe, attack);

  // Warm start from the clean model, then harden (standard curriculum:
  // adversarial examples against a random net are uninformative).
  MlpModel hardened({2, 32, 1});
  hardened.set_params(model.params());
  AdversarialTrainConfig cfg;
  cfg.steps = 6000;
  cfg.lr = 0.15;
  cfg.adversarial_fraction = 0.7;
  cfg.attack = attack;
  Rng arng(64);
  adversarial_train(hardened, train, cfg, arng);
  const double after = robust_accuracy_pgd(hardened, probe, attack);
  EXPECT_GT(after, before + 0.04);
  // Clean accuracy should not collapse.
  EXPECT_GT(accuracy(probe, [&](const Vec& x) { return hardened.predict(x); }), 0.85);
}

TEST_F(AdvFixture, CertifiedImpliesPgdCannotFlip) {
  // Soundness cross-check between the verifier and the attack: a point
  // certified at eps can never be flipped by PGD within eps.
  const double eps = 0.2;
  const PgdConfig attack{.epsilon = eps, .step = 0.05, .iterations = 20};
  for (const Example& e : probe) {
    if (!certified_at(model, e.x, e.y, eps)) continue;
    const Vec adv = pgd(model, e, attack);
    EXPECT_EQ(model.predict(adv) > 0.5, e.y > 0.5);
  }
}

}  // namespace
}  // namespace iobt::learn
