// Unit and property tests for the simulation kernel: time arithmetic, RNG
// determinism and distribution sanity, event ordering, metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "sim/geometry.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace iobt::sim {
namespace {

// ---------------------------------------------------------------- Time ----

TEST(SimTime, ArithmeticRoundTrips) {
  const SimTime t = SimTime::seconds(1.5);
  EXPECT_EQ(t.nanos(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(t.to_seconds(), 1.5);
  const SimTime t2 = t + Duration::millis(250);
  EXPECT_DOUBLE_EQ(t2.to_seconds(), 1.75);
  EXPECT_EQ((t2 - t).nanos(), Duration::millis(250).nanos());
}

TEST(SimTime, ComparisonIsTotalOrder) {
  EXPECT_LT(SimTime::seconds(1.0), SimTime::seconds(2.0));
  EXPECT_EQ(SimTime::millis(1000), SimTime::seconds(1.0));
  // ~292 years of nanoseconds fit in int64; 10^9 s is comfortably inside.
  EXPECT_GT(SimTime::max(), SimTime::seconds(1e9));
}

TEST(Duration, ScalingOperators) {
  EXPECT_EQ((Duration::millis(10) * 3).nanos(), Duration::millis(30).nanos());
  EXPECT_EQ((Duration::seconds(1.0) * 0.5).nanos(), Duration::millis(500).nanos());
}

// ----------------------------------------------------------------- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ChildStreamsIndependentOfSiblingOrder) {
  Rng parent(7);
  Rng c1 = parent.child(1);
  Rng c2 = parent.child(2);
  // Recreating children in the other order yields identical streams.
  Rng parent2(7);
  Rng d2 = parent2.child(2);
  Rng d1 = parent2.child(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c1.next_u64(), d1.next_u64());
    EXPECT_EQ(c2.next_u64(), d2.next_u64());
  }
}

TEST(Rng, ChildByNameIsStable) {
  Rng parent(7);
  Rng a = parent.child("alpha");
  Rng b = parent.child("alpha");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
}

TEST(Rng, UniformIntSingleton) {
  Rng r(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliProbability) {
  Rng r(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng r(23);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng r(29);
  EXPECT_THROW(r.categorical({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng r(37);
  for (int trial = 0; trial < 100; ++trial) {
    auto s = r.sample_indices(50, 10);
    ASSERT_EQ(s.size(), 10u);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 10u);
    for (auto i : s) EXPECT_LT(i, 50u);
  }
}

TEST(Rng, SampleIndicesAllWhenKTooLarge) {
  Rng r(41);
  auto s = r.sample_indices(5, 10);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(43);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ------------------------------------------------------------ Simulator ----

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0));
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(5.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::seconds(1.0), [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_in(Duration::seconds(-1.0), [] {}), std::logic_error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(SimTime::seconds(1.0), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_count(), 0u);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(12345);  // must not crash
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CancelAlreadyFiredIdIsNoop) {
  Simulator sim;
  int ran = 0;
  const EventId id = sim.schedule_at(SimTime::seconds(1.0), [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.cancel(id);  // already executed: harmless
  // The freed slot can be reused; the stale cancel must not affect it.
  sim.schedule_at(SimTime::seconds(2.0), [&] { ++ran; });
  sim.cancel(id);  // still a no-op even though the slot is reoccupied
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.executed_count(), 2u);
}

TEST(Simulator, CancelFromInsideRunningHandler) {
  Simulator sim;
  bool later_ran = false;
  EventId self_id = 0;
  const EventId later = sim.schedule_at(SimTime::seconds(2.0),
                                        [&] { later_ran = true; });
  self_id = sim.schedule_at(SimTime::seconds(1.0), [&] {
    sim.cancel(later);    // cancel a pending event from a handler
    sim.cancel(self_id);  // cancelling the currently-running id: no-op
  });
  sim.run();
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(sim.executed_count(), 1u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, StaleIdDoesNotCancelSlotReuse) {
  Simulator sim;
  bool victim_ran = false;
  // Schedule + cancel churn so the next schedule reuses a freed slot.
  const EventId a = sim.schedule_at(SimTime::seconds(1.0), [] {});
  sim.cancel(a);
  const EventId b = sim.schedule_at(SimTime::seconds(1.0),
                                    [&] { victim_ran = true; });
  EXPECT_NE(a, b);  // generation stamp differs even if the slot is shared
  sim.cancel(a);    // stale id must not kill the new occupant
  sim.run();
  EXPECT_TRUE(victim_ran);
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(SimTime::seconds(1.0), [] {});
  sim.schedule_at(SimTime::seconds(2.0), [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.cancel(a);  // double-cancel does not underflow
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.executed_count(), 1u);
}

TEST(Simulator, RunUntilWithCancelledFrontEventsAdvancesClock) {
  Simulator sim;
  int ran = 0;
  const EventId a = sim.schedule_at(SimTime::seconds(1.0), [&] { ++ran; });
  sim.schedule_at(SimTime::seconds(10.0), [&] { ++ran; });
  sim.cancel(a);
  sim.run_until(SimTime::seconds(5.0));  // front of the heap is stale
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.now(), SimTime::seconds(5.0));
  EXPECT_EQ(sim.pending_count(), 1u);  // post-deadline event stays queued
  sim.run();
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, HeavyCancelChurnStaysConsistent) {
  // Exercises slot reuse and heap compaction: far more cancels than
  // survivors, interleaved with execution.
  Simulator sim;
  std::uint64_t fired = 0;
  std::vector<EventId> armed;
  for (int round = 0; round < 20; ++round) {
    for (const EventId id : armed) sim.cancel(id);
    armed.clear();
    for (int i = 0; i < 500; ++i) {
      armed.push_back(sim.schedule_at(
          SimTime::seconds(100.0 + round), [&] { ++fired; }));
    }
  }
  EXPECT_EQ(sim.pending_count(), 500u);  // only the last round survives
  sim.run();
  EXPECT_EQ(fired, 500u);
  EXPECT_EQ(sim.executed_count(), 500u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

// ------------------------------------------------- Tags and profiling ----

TEST(TagTable, InternIsIdempotentAndDense) {
  TagTable t;
  EXPECT_EQ(t.intern(""), kUntagged);
  const TagId a = t.intern("net.deliver");
  const TagId b = t.intern("rel.rto");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("net.deliver"), a);
  EXPECT_EQ(t.name(a), "net.deliver");
  EXPECT_EQ(t.size(), 3u);  // "", net.deliver, rel.rto
}

TEST(Simulator, ProfileCountsPerTag) {
  Simulator sim;
  const TagId rto = sim.intern("rel.rto");
  const EventId cancelled =
      sim.schedule_at(SimTime::seconds(1.0), [] {}, rto);
  sim.schedule_at(SimTime::seconds(2.0), [] {}, rto);
  sim.schedule_at(SimTime::seconds(3.0), [] {}, rto);
  sim.schedule_at(SimTime::seconds(1.0), [] {}, "other.tag");
  sim.cancel(cancelled);
  sim.run();
  bool found_rto = false, found_other = false;
  for (const auto& row : sim.profile()) {
    if (row.tag == "rel.rto") {
      found_rto = true;
      EXPECT_EQ(row.scheduled, 3u);
      EXPECT_EQ(row.executed, 2u);
      EXPECT_EQ(row.cancelled, 1u);
    } else if (row.tag == "other.tag") {
      found_other = true;
      EXPECT_EQ(row.scheduled, 1u);
      EXPECT_EQ(row.executed, 1u);
      EXPECT_EQ(row.cancelled, 0u);
    }
  }
  EXPECT_TRUE(found_rto);
  EXPECT_TRUE(found_other);
  EXPECT_NE(sim.profile_table().find("rel.rto"), std::string::npos);
}

TEST(Simulator, ProfilingAccumulatesBusyTimeWhenEnabled) {
  Simulator sim;
  sim.set_profiling(true);
  sim.schedule_at(SimTime::seconds(1.0), [] {
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + static_cast<double>(i);
  }, "work");
  sim.run();
  for (const auto& row : sim.profile()) {
    if (row.tag == "work") {
      EXPECT_GT(row.busy_ms, 0.0);
    }
  }
}

TEST(Simulator, ProfilingSurvivesNewTagsInternedByHandler) {
  // Regression: step() used to hold a TagStats& across the handler call;
  // a handler that interns fresh tags resizes stats_ and the post-handler
  // busy-time write landed in freed memory (caught by ASan).
  Simulator sim;
  sim.set_profiling(true);
  sim.schedule_at(SimTime::seconds(1.0), [&] {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_in(Duration::seconds(1.0), [] {},
                      "fresh.tag." + std::to_string(i));
    }
  }, "spawner");
  sim.run();
  bool found = false;
  for (const auto& row : sim.profile()) {
    if (row.tag == "spawner") {
      found = true;
      EXPECT_EQ(row.executed, 1u);
      EXPECT_GE(row.busy_ms, 0.0);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(sim.executed_count(), 65u);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_in(Duration::seconds(1.0), chain);
  };
  sim.schedule_in(Duration::seconds(1.0), chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), SimTime::seconds(5.0));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(SimTime::seconds(1.0), [&] { ++ran; });
  sim.schedule_at(SimTime::seconds(10.0), [&] { ++ran; });
  sim.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime::seconds(5.0));
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, PeriodicStopsWhenCallbackReturnsFalse) {
  Simulator sim;
  int ticks = 0;
  sim.schedule_every(Duration::seconds(1.0), [&] { return ++ticks < 4; });
  sim.run();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(sim.now(), SimTime::seconds(4.0));
}

TEST(Simulator, PeriodicStateFreedWhenSimulatorDestroyedWhileArmed) {
  // Regression: the periodic loop's shared state used to hold itself alive
  // through a state->tick->state shared_ptr cycle, leaking every loop still
  // armed at Simulator teardown.
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> observer = sentinel;
  {
    Simulator sim;
    sim.schedule_every(Duration::seconds(1.0), [s = std::move(sentinel)] {
      ++*s;
      return true;  // never stops on its own
    });
    sim.run_for(Duration::seconds(3.0));
    EXPECT_FALSE(observer.expired());
    EXPECT_EQ(*observer.lock(), 3);
  }
  EXPECT_TRUE(observer.expired());
}

TEST(Simulator, PeriodicRejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_every(Duration::zero(), [] { return true; }),
               std::logic_error);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

// -------------------------------------------------------------- Metrics ----

TEST(Summary, MeanVarianceMinMax) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Summary, QuantilesOnUniformStream) {
  Summary s;
  for (int i = 0; i < 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.quantile(0.5), 500.0, 1.0);
  EXPECT_NEAR(s.quantile(0.99), 990.0, 1.5);
}

TEST(Summary, ReservoirKeepsQuantilesApproximateBeyondCapacity) {
  Summary s;
  for (int i = 0; i < 100000; ++i) s.add(static_cast<double>(i % 1000));
  EXPECT_NEAR(s.quantile(0.5), 500.0, 50.0);
  EXPECT_EQ(s.count(), 100000u);
}

TEST(MetricsRegistry, CountersGaugesSummaries) {
  MetricsRegistry m;
  m.count("drops");
  m.count("drops", 2.0);
  m.gauge("load", 0.7);
  m.observe("lat", 1.0);
  m.observe("lat", 3.0);
  EXPECT_DOUBLE_EQ(m.counter("drops"), 3.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("load"), 0.7);
  ASSERT_NE(m.summary("lat"), nullptr);
  EXPECT_DOUBLE_EQ(m.summary("lat")->mean(), 2.0);
  EXPECT_EQ(m.summary("missing"), nullptr);
  EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
}

// ------------------------------------------------------------- Geometry ----

TEST(Geometry, VectorOps) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  const Vec2 u = a.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Vec2{}.normalized().norm(), 0.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
}

TEST(Geometry, RectContainsAndClamps) {
  const Rect r{{0, 0}, {10, 20}};
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_FALSE(r.contains({11, 5}));
  EXPECT_EQ(r.clamp({-5, 25}), (Vec2{0, 20}));
  EXPECT_DOUBLE_EQ(r.area(), 200.0);
  EXPECT_EQ(r.center(), (Vec2{5, 10}));
}

// Property sweep: simulator determinism under random workloads.
class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDeterminism, IdenticalSeedsProduceIdenticalTraces) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    std::vector<std::int64_t> trace;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      ids.push_back(
          sim.schedule_at(SimTime::micros(rng.uniform_int(0, 1'000'000)),
                          [&trace, &sim] { trace.push_back(sim.now().nanos()); }));
    }
    // Random cancellations must be part of the deterministic trace too.
    for (const EventId id : ids) {
      if (rng.bernoulli(0.3)) sim.cancel(id);
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism,
                         ::testing::Values(1ULL, 42ULL, 9999ULL, 0xDEADBEEFULL));

}  // namespace
}  // namespace iobt::sim
