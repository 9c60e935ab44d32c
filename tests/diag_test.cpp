// Tests for diagnostics: tomography identifiability and estimation,
// failure localization, and monitor placement.

#include <gtest/gtest.h>

#include "diag/tomography.h"
#include "topology_fixtures.h"

namespace iobt::diag {
namespace {

using net::Topology;
using sim::Rng;

// ------------------------------------------------------------ Tomography ----

TEST(Tomography, LineWithEndMonitorsMeasuresWholePath) {
  // 0-1-2-3 line; monitors at both ends: one path covering all 3 links.
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  TomographySystem sys(t, {0, 3});
  ASSERT_EQ(sys.paths().size(), 1u);
  EXPECT_EQ(sys.paths()[0].link_indices.size(), 3u);
  // A single sum cannot identify individual links.
  EXPECT_DOUBLE_EQ(sys.identifiability(), 0.0);
}

TEST(Tomography, AllNodesAsMonitorsIdentifyEverything) {
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  TomographySystem sys(t, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(sys.identifiability(), 1.0);

  const std::vector<double> truth = {1.5, 2.5, 0.5};
  const auto meas = sys.measure(truth);
  const auto est = sys.estimate(meas);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(est[i], truth[i], 1e-5) << "link " << i;
  }
}

TEST(Tomography, EstimateDegradesGracefullyWithNoise) {
  Rng rng(1);
  std::vector<sim::Vec2> pos;
  const auto t = iobt::testing::random_geometric(20, {{0, 0}, {500, 500}}, 220, rng, &pos);
  if (!t.connected()) GTEST_SKIP() << "disconnected sample";
  std::vector<net::NodeId> monitors;
  for (net::NodeId v = 0; v < 20; v += 2) monitors.push_back(v);
  TomographySystem sys(t, monitors);

  std::vector<double> truth(sys.link_count());
  Rng mrng(2);
  for (double& x : truth) x = mrng.uniform(1.0, 5.0);
  Rng noise_rng(3);
  const auto noisy = sys.measure(truth, 0.01, &noise_rng);
  const auto est = sys.estimate(noisy);
  // Identifiable links should be close to truth.
  const auto ident = sys.identifiable_links();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (ident[i]) {
      EXPECT_NEAR(est[i], truth[i], 0.5) << "link " << i;
    }
  }
}

TEST(Tomography, MoreMonitorsNeverReduceIdentifiability) {
  Topology t = Topology::grid(4, 4);
  TomographySystem few(t, {0, 15});
  TomographySystem some(t, {0, 3, 12, 15});
  TomographySystem many(t, {0, 3, 5, 10, 12, 15});
  EXPECT_LE(few.identifiability(), some.identifiability() + 1e-12);
  EXPECT_LE(some.identifiability(), many.identifiability() + 1e-12);
}

TEST(Tomography, FailureLocalizationFindsTheBrokenLink) {
  // Line 0-1-2-3 with monitors everywhere; break link 1-2.
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  TomographySystem sys(t, {0, 1, 2, 3});

  // Identify which edge index is 1-2.
  std::size_t broken = SIZE_MAX;
  for (std::size_t i = 0; i < sys.links().size(); ++i) {
    if (sys.links()[i].a == 1 && sys.links()[i].b == 2) broken = i;
  }
  ASSERT_NE(broken, SIZE_MAX);

  std::vector<bool> path_ok;
  for (const auto& p : sys.paths()) {
    bool ok = true;
    for (std::size_t li : p.link_indices) ok &= (li != broken);
    path_ok.push_back(ok);
  }
  const auto d = sys.localize_failures(path_ok);
  ASSERT_EQ(d.minimal_explanation.size(), 1u);
  EXPECT_EQ(d.minimal_explanation[0], broken);
  EXPECT_TRUE(d.suspect[broken]);
  EXPECT_FALSE(d.known_good[broken]);
}

TEST(Tomography, LocalizationWithTwoFailures) {
  Topology t = Topology::grid(3, 3);
  std::vector<net::NodeId> all;
  for (net::NodeId v = 0; v < 9; ++v) all.push_back(v);
  TomographySystem sys(t, all);

  const std::size_t f1 = 0, f2 = 5;
  std::vector<bool> path_ok;
  for (const auto& p : sys.paths()) {
    bool ok = true;
    for (std::size_t li : p.link_indices) ok &= (li != f1 && li != f2);
    path_ok.push_back(ok);
  }
  const auto d = sys.localize_failures(path_ok);
  EXPECT_TRUE(d.suspect[f1]);
  EXPECT_TRUE(d.suspect[f2]);
  // The explanation covers every failed path.
  EXPECT_LE(d.minimal_explanation.size(), 4u);
}

TEST(Tomography, AllPathsOkMeansNoSuspects) {
  Topology t = Topology::grid(3, 3);
  TomographySystem sys(t, {0, 8});
  std::vector<bool> ok(sys.paths().size(), true);
  const auto d = sys.localize_failures(ok);
  EXPECT_TRUE(d.minimal_explanation.empty());
  for (bool s : d.suspect) EXPECT_FALSE(s);
}

TEST(MonitorPlacement, GreedyImprovesOverPairAndRespectsBudget) {
  Topology t = Topology::grid(4, 4);
  const auto placed = greedy_monitor_placement(t, 5);
  EXPECT_LE(placed.size(), 5u);
  EXPECT_GE(placed.size(), 2u);
  TomographySystem chosen(t, placed);
  TomographySystem corners(t, {0, 15});
  EXPECT_GE(chosen.identifiability() + 1e-12, corners.identifiability());
}

}  // namespace
}  // namespace iobt::diag
