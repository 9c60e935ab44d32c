// Tests for the adaptation primitives: controller diversity by imitation
// and modality switching.

#include <gtest/gtest.h>

#include "adapt/control.h"
#include "adapt/perception.h"

namespace iobt::adapt {
namespace {

// ----------------------------------------------------------- Imitation ----

TEST(Imitation, ConvergesTowardBestPerformer) {
  // Performance = -(p - 3)^2: optimum at parameter 3.
  std::vector<std::vector<double>> params = {{0.0}, {1.0}, {5.0}, {3.0}};
  ImitationPopulation pop(params);
  std::vector<std::vector<std::size_t>> neighbors = {
      {1, 3}, {0, 2}, {1, 3}, {0, 2}};
  for (int round = 0; round < 50; ++round) {
    std::vector<double> perf;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const double p = pop.params(i)[0];
      perf.push_back(-(p - 3.0) * (p - 3.0));
    }
    pop.imitate(perf, neighbors, 0.5);
  }
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_NEAR(pop.params(i)[0], 3.0, 0.3) << "agent " << i;
  }
  EXPECT_LT(pop.diversity(), 0.1);
}

TEST(Imitation, DiversityMetric) {
  ImitationPopulation uniform({{1.0}, {1.0}, {1.0}});
  EXPECT_DOUBLE_EQ(uniform.diversity(), 0.0);
  ImitationPopulation spread({{0.0}, {2.0}});
  EXPECT_DOUBLE_EQ(spread.diversity(), 1.0);
}

// ----------------------------------------------------------- Perception ----

TEST(ModalitySwitcher, SwitchesOnYieldCollapse) {
  ModalitySwitcher sw({things::Modality::kCamera, things::Modality::kSeismic});
  // Healthy camera phase.
  for (int i = 0; i < 10; ++i) sw.feed(things::Modality::kCamera, 10.0);
  EXPECT_EQ(sw.current(), things::Modality::kCamera);
  // Jamming: camera yield collapses; seismic keeps producing (fed by the
  // redundant sensors' sweeps).
  bool switched = false;
  for (int i = 0; i < 20 && !switched; ++i) {
    sw.feed(things::Modality::kSeismic, 6.0);
    switched = sw.feed(things::Modality::kCamera, 0.0);
  }
  EXPECT_TRUE(switched);
  EXPECT_EQ(sw.current(), things::Modality::kSeismic);
  EXPECT_EQ(sw.switch_count(), 1u);
}

TEST(ModalitySwitcher, NoSpuriousSwitchDuringWarmup) {
  ModalitySwitcher sw({things::Modality::kCamera, things::Modality::kSeismic});
  // Low yield from the start: no baseline yet, must not switch.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(sw.feed(things::Modality::kCamera, 0.0));
  }
  EXPECT_EQ(sw.current(), things::Modality::kCamera);
}

TEST(ModalitySwitcher, ForceOverride) {
  ModalitySwitcher sw({things::Modality::kCamera, things::Modality::kRadar});
  sw.force(things::Modality::kRadar);
  EXPECT_EQ(sw.current(), things::Modality::kRadar);
}

}  // namespace
}  // namespace iobt::adapt
