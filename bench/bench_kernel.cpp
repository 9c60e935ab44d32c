// Kernel microbenchmark: event throughput of the discrete-event scheduler
// under the workloads the IoBT substrate actually generates at 10k-node
// scale — schedule/cancel churn (RTO timers armed and cancelled on ACK),
// periodic service loops, and bulk FIFO delivery. §I's scale claim ("1,000s
// to 10,000s of things", synthesized and exercised "within minutes") is
// only honest if this hot path sustains millions of events per second.
// Emits BENCH_kernel.json so the perf trajectory is tracked across PRs.

#include <cstdio>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace iobt {
namespace {

using sim::Duration;

// ------------------------------------------------------------------------
// Workloads, each on its own simulator.

struct WorkloadResult {
  std::uint64_t ops = 0;       // schedules + cancels issued
  std::uint64_t executed = 0;  // events that actually ran
  double wall_ms = 0.0;
  double ops_per_sec() const { return ops / (wall_ms * 1e-3); }
};

/// RTO-timer churn at `nodes` scale: every node keeps one timer armed;
/// each round cancels it (the "ACK arrived" path) and re-arms a fresh one.
/// This is the cancel-heavy pattern of any timeout that a reply usually
/// beats.
WorkloadResult churn_workload(sim::Simulator& sim, sim::TagId tag, int nodes,
                              int rounds) {
  sim::Rng rng(42);
  std::vector<std::uint64_t> armed(static_cast<std::size_t>(nodes));
  std::uint64_t fired = 0;
  WorkloadResult r;
  bench::WallTimer timer;
  for (int i = 0; i < nodes; ++i) {
    armed[static_cast<std::size_t>(i)] = sim.schedule_in(
        Duration::millis(1000 + rng.uniform_int(0, 1000)), [&fired] { ++fired; },
        tag);
    ++r.ops;
  }
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < nodes; ++i) {
      sim.cancel(armed[static_cast<std::size_t>(i)]);
      armed[static_cast<std::size_t>(i)] = sim.schedule_in(
          Duration::millis(1000 + rng.uniform_int(0, 1000)),
          [&fired] { ++fired; }, tag);
      r.ops += 2;
    }
  }
  sim.run();
  r.wall_ms = timer.ms();
  r.executed = fired;
  return r;
}

/// Bulk FIFO delivery: `total` events scheduled in loose time order, then
/// drained — the shape of network frame delivery.
WorkloadResult delivery_workload(sim::Simulator& sim, sim::TagId tag, int total) {
  sim::Rng rng(7);
  std::uint64_t fired = 0;
  WorkloadResult r;
  bench::WallTimer timer;
  for (int i = 0; i < total; ++i) {
    sim.schedule_in(Duration::micros(rng.uniform_int(0, 10'000'000)),
                    [&fired] { ++fired; }, tag);
    ++r.ops;
  }
  sim.run();
  r.wall_ms = timer.ms();
  r.executed = fired;
  return r;
}

/// Self-rescheduling ticks (periodic service loops): `nodes` chains, each
/// rescheduling itself `ticks` times from inside its handler.
WorkloadResult periodic_workload(sim::Simulator& sim, sim::TagId tag, int nodes,
                                 int ticks) {
  std::uint64_t fired = 0;
  WorkloadResult r;
  bench::WallTimer timer;
  struct Chain {
    std::function<void()> fn;
    int remaining = 0;
  };
  for (int i = 0; i < nodes; ++i) {
    auto chain = std::make_shared<Chain>();
    chain->remaining = ticks;
    chain->fn = [&sim, &fired, tag, chain]() {
      ++fired;
      if (--chain->remaining > 0) {
        sim.schedule_in(Duration::millis(100), [chain] { chain->fn(); }, tag);
      } else {
        chain->fn = nullptr;  // break the shared_ptr cycle
      }
    };
    sim.schedule_in(Duration::millis(100), [chain] { chain->fn(); }, tag);
    ++r.ops;
  }
  sim.run();
  r.wall_ms = timer.ms();
  r.executed = fired;
  return r;
}

void print_result(const char* workload, const WorkloadResult& r) {
  bench::row("  %-10s ops=%9llu executed=%9llu wall=%9.2fms  %8.2f Mops/s", workload,
             static_cast<unsigned long long>(r.ops),
             static_cast<unsigned long long>(r.executed), r.wall_ms,
             r.ops_per_sec() * 1e-6);
}

}  // namespace
}  // namespace iobt

int main() {
  using namespace iobt;
  constexpr int kNodes = 10'000;
  constexpr int kChurnRounds = 50;
  constexpr int kDeliveryEvents = 1'000'000;
  constexpr int kPeriodicTicks = 100;

  bench::header("bench_kernel",
                "composite IoBTs of 1,000s-10,000s of nodes must be exercised "
                "within minutes -> the event kernel is the hot path");

  // Each workload builds its own simulator from scratch.
  const std::pair<const char*, WorkloadResult> rows[] = {
      {"churn",
       [] {
         sim::Simulator sim;
         return churn_workload(sim, sim.intern("rel.rto"), kNodes, kChurnRounds);
       }()},
      {"delivery",
       [] {
         sim::Simulator sim;
         return delivery_workload(sim, sim.intern("net.deliver"), kDeliveryEvents);
       }()},
      {"periodic",
       [] {
         sim::Simulator sim;
         return periodic_workload(sim, sim.intern("svc.tick"), kNodes, kPeriodicTicks);
       }()},
  };
  for (const auto& [name, r] : rows) print_result(name, r);

  // Per-tag profile demo: a mixed workload on one simulator with wall-time
  // accumulation on, printed the way every bench can now print it.
  sim::Simulator profiled;
  profiled.set_profiling(true);
  churn_workload(profiled, profiled.intern("rel.rto"), 1000, 10);
  delivery_workload(profiled, profiled.intern("net.deliver"), 50'000);
  periodic_workload(profiled, profiled.intern("svc.tick"), 1000, 20);
  bench::row("");
  bench::row("per-tag kernel profile (mixed workload):");
  std::printf("%s", profiled.profile_table().c_str());

  // JSON row for the perf trajectory.
  bench::write_artifact("BENCH_kernel.json", [&](trace::JsonWriter& w) {
    w.key("nodes").integer(kNodes).key("churn_rounds").integer(kChurnRounds);
    w.key("delivery_events").integer(kDeliveryEvents);
    w.key("workloads").begin_array();
    for (const auto& [name, r] : rows) {
      w.begin_object().key("kernel").string("slab").key("workload").string(name);
      w.key("ops").integer(r.ops).key("executed").integer(r.executed);
      w.key("wall_ms").number(r.wall_ms, 3);
      w.key("ops_per_sec").number(r.ops_per_sec(), 0).end_object();
    }
    w.end_array();
    w.key("profile").begin_array();
    for (const auto& r : profiled.profile()) {
      w.begin_object().key("tag").string(r.tag).key("scheduled").integer(r.scheduled);
      w.key("executed").integer(r.executed).key("cancelled").integer(r.cancelled);
      w.key("busy_ms").number(r.busy_ms, 3).end_object();
    }
    w.end_array();
  });
  return 0;
}
