// Tests for adaptive reflexes: invariant monitoring, reflex chains with
// escalation, adaptive controllers, and modality switching.

#include <gtest/gtest.h>

#include "adapt/control.h"
#include "adapt/monitor.h"
#include "adapt/perception.h"
#include "adapt/reflex.h"

namespace iobt::adapt {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::SimTime;

// -------------------------------------------------------------- Monitor ----

TEST(Monitor, DetectsViolationEdgeOnce) {
  Simulator sim;
  InvariantMonitor mon(sim, Duration::seconds(1.0));
  bool healthy = true;
  int fired = 0;
  mon.watch("inv", [&] { return healthy; }, [&] { ++fired; });
  mon.start();
  sim.schedule_at(SimTime::seconds(5), [&] { healthy = false; });
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(fired, 1);  // edge, not level
  EXPECT_FALSE(mon.holding("inv"));
  EXPECT_EQ(mon.violation_count("inv"), 1u);
}

TEST(Monitor, RecordsRepairTime) {
  Simulator sim;
  InvariantMonitor mon(sim, Duration::seconds(1.0));
  bool healthy = true;
  mon.watch("inv", [&] { return healthy; });
  mon.start();
  sim.schedule_at(SimTime::seconds(5), [&] { healthy = false; });
  sim.schedule_at(SimTime::seconds(9), [&] { healthy = true; });
  sim.run_until(SimTime::seconds(15));
  EXPECT_TRUE(mon.holding("inv"));
  ASSERT_EQ(mon.history().size(), 1u);
  EXPECT_FALSE(mon.history()[0].ongoing());
  EXPECT_NEAR(mon.mean_repair_time("inv").to_seconds(), 4.0, 1.01);
}

TEST(Monitor, MultipleViolationsCounted) {
  Simulator sim;
  InvariantMonitor mon(sim, Duration::seconds(1.0));
  bool healthy = true;
  mon.watch("inv", [&] { return healthy; });
  mon.start();
  for (int k = 0; k < 3; ++k) {
    sim.schedule_at(SimTime::seconds(5 + 10 * k), [&] { healthy = false; });
    sim.schedule_at(SimTime::seconds(8 + 10 * k), [&] { healthy = true; });
  }
  sim.run_until(SimTime::seconds(40));
  EXPECT_EQ(mon.violation_count("inv"), 3u);
}

TEST(Monitor, CheckNowWorksWithoutStart) {
  Simulator sim;
  InvariantMonitor mon(sim, Duration::seconds(1.0));
  bool healthy = false;
  mon.watch("inv", [&] { return healthy; });
  mon.check_now();
  EXPECT_FALSE(mon.holding("inv"));
  healthy = true;
  mon.check_now();
  EXPECT_TRUE(mon.holding("inv"));
}

// --------------------------------------------------------------- Reflex ----

TEST(Reflex, FiresActionAndRepairs) {
  Simulator sim;
  InvariantMonitor mon(sim, Duration::seconds(1.0));
  bool healthy = true;
  mon.watch("link", [&] { return healthy; });

  ReflexEngine engine(sim, mon);
  engine.bind("link", {{"restore", [&] { healthy = true; }}}, Duration::seconds(2.0));
  engine.arm();
  mon.start();

  sim.schedule_at(SimTime::seconds(5), [&] { healthy = false; });
  sim.run_until(SimTime::seconds(12));
  EXPECT_TRUE(healthy);
  EXPECT_GE(engine.fired_count(), 1u);
  EXPECT_EQ(engine.log()[0].action, "restore");
}

TEST(Reflex, EscalatesWhenFirstActionIneffective) {
  Simulator sim;
  InvariantMonitor mon(sim, Duration::seconds(1.0));
  bool healthy = true;
  int weak_fires = 0;
  mon.watch("svc", [&] { return healthy; });

  ReflexEngine engine(sim, mon);
  engine.bind("svc",
              {{"weak", [&] { ++weak_fires; }},       // never fixes it
               {"strong", [&] { healthy = true; }}},  // fixes it
              Duration::seconds(1.0), /*escalate_after=*/2);
  engine.arm();
  mon.start();

  sim.schedule_at(SimTime::seconds(3), [&] { healthy = false; });
  sim.run_until(SimTime::seconds(20));
  EXPECT_TRUE(healthy);
  EXPECT_GE(weak_fires, 2);
  bool strong_fired = false;
  for (const auto& f : engine.log()) strong_fired |= (f.action == "strong");
  EXPECT_TRUE(strong_fired);
}

TEST(Reflex, CooldownLimitsFireRate) {
  Simulator sim;
  InvariantMonitor mon(sim, Duration::seconds(1.0));
  mon.watch("always_bad", [] { return false; });

  ReflexEngine engine(sim, mon);
  int fires = 0;
  engine.bind("always_bad", {{"noop", [&] { ++fires; }}}, Duration::seconds(5.0));
  engine.arm();
  mon.start();
  sim.run_until(SimTime::seconds(21));
  // ~21 s / 5 s cooldown => at most 5 fires.
  EXPECT_LE(fires, 5);
  EXPECT_GE(fires, 3);
}

// ------------------------------------------------------------ Lifetime ----
// Periodic loops must not outlive their owners: every schedule_every
// lambda that captures a service's `this` holds a weak lifetime token and
// unschedules itself once the service is destroyed. These tests tear the
// service down mid-run and keep the simulator going — the sanitizer CI
// build turns any dangling-`this` regression into a hard failure, and the
// pending_count assertions prove the loop actually unscheduled itself.

TEST(Monitor, PeriodicCheckStopsAfterMonitorDestruction) {
  Simulator sim;
  {
    InvariantMonitor mon(sim, Duration::seconds(1.0));
    mon.watch("inv", [] { return true; });
    mon.start();
    sim.run_until(SimTime::seconds(3.5));
    EXPECT_GT(sim.pending_count(), 0u);
  }
  // The next tick notices the expired token and stops rescheduling.
  sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Reflex, EscalationPollStopsAfterEngineDestruction) {
  Simulator sim;
  {
    InvariantMonitor mon(sim, Duration::seconds(1.0));
    ReflexEngine engine(sim, mon);
    engine.bind("inv", {{"noop", [] {}}});
    engine.arm();
    mon.start();
    sim.run_until(SimTime::seconds(2.5));
    EXPECT_GT(sim.pending_count(), 0u);
  }
  // Both the monitor tick and the engine's 1 s escalation poll must die
  // with their owners.
  sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(sim.pending_count(), 0u);
}

// ------------------------------------------------------------- Control ----

TEST(Aimd, IncreasesAdditivelyDecreasesMultiplicatively) {
  AimdController c(10.0, 1.0, 100.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(c.update(false), 12.0);
  EXPECT_DOUBLE_EQ(c.update(false), 14.0);
  EXPECT_DOUBLE_EQ(c.update(true), 7.0);
  // Clamped at bounds.
  for (int i = 0; i < 100; ++i) c.update(false);
  EXPECT_DOUBLE_EQ(c.rate(), 100.0);
  for (int i = 0; i < 100; ++i) c.update(true);
  EXPECT_DOUBLE_EQ(c.rate(), 1.0);
}

TEST(Pi, DrivesFirstOrderPlantToSetpoint) {
  PiController pi(0.8, 0.5, 0.0, 10.0);
  double plant = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double u = pi.update(5.0, plant, 0.1);
    plant += 0.1 * (u - 0.5 * plant);  // leaky integrator plant
  }
  EXPECT_NEAR(plant, 5.0, 0.3);
}

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
