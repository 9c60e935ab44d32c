// Kernel microbenchmark: event throughput of the discrete-event scheduler
// under the workloads the IoBT substrate actually generates at 10k-node
// scale — schedule/cancel churn (RTO timers armed and cancelled on ACK),
// periodic service loops, and bulk FIFO delivery. §I's scale claim ("1,000s
// to 10,000s of things", synthesized and exercised "within minutes") is
// only honest if this hot path sustains millions of events per second.
//
// The seed kernel (string-tagged events in the heap, tombstone-set
// cancellation) is reproduced below as `LegacySimulator` so the speedup of
// the slab/interned-tag kernel is measured, not asserted. Emits
// BENCH_kernel.json so the perf trajectory is tracked across PRs.

#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "sim/simulator.h"

namespace iobt {
namespace {

using sim::Duration;
using sim::SimTime;

// ------------------------------------------------------------------------
// Faithful copy of the seed (pre-slab) kernel, kept here as the perf
// baseline: per-event std::string tag + std::function stored directly in
// the heap, cancellation via an unordered_set of tombstones.
class LegacySimulator {
 public:
  using EventId = std::uint64_t;

  SimTime now() const { return now_; }

  EventId schedule_at(SimTime when, std::function<void()> fn,
                      std::string_view tag = {}) {
    const EventId id = next_id_++;
    queue_.push(Event{when, id, std::move(fn), std::string(tag)});
    return id;
  }
  EventId schedule_in(Duration delay, std::function<void()> fn,
                      std::string_view tag = {}) {
    return schedule_at(now_ + delay, std::move(fn), tag);
  }
  void cancel(EventId id) { cancelled_.insert(id); }

  bool step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (cancelled_.erase(ev.id) > 0) continue;
      now_ = ev.when;
      ++executed_;
      ev.fn();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  std::uint64_t executed_count() const { return executed_; }

 private:
  struct Event {
    SimTime when;
    EventId id;
    std::function<void()> fn;
    std::string tag;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  SimTime now_;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

// ------------------------------------------------------------------------
// Workloads, templated over the kernel so both implementations run the
// exact same instruction stream.

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
template <class Sim, class Tag>
WorkloadResult churn_workload(Sim& sim, Tag tag, int nodes, int rounds) {
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
template <class Sim, class Tag>
WorkloadResult delivery_workload(Sim& sim, Tag tag, int total) {
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
template <class Sim, class Tag>
WorkloadResult periodic_workload(Sim& sim, Tag tag, int nodes, int ticks) {
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

void print_result(const char* kernel, const char* workload,
                  const WorkloadResult& r) {
  bench::row("  %-8s %-10s ops=%9llu executed=%9llu wall=%9.2fms  %8.2f Mops/s",
             kernel, workload, static_cast<unsigned long long>(r.ops),
             static_cast<unsigned long long>(r.executed), r.wall_ms,
             r.ops_per_sec() * 1e-6);
}

void json_workload(std::FILE* f, const char* kernel, const char* workload,
                   const WorkloadResult& r, bool last) {
  std::fprintf(f,
               "    {\"kernel\": \"%s\", \"workload\": \"%s\", \"ops\": %llu, "
               "\"executed\": %llu, \"wall_ms\": %.3f, \"ops_per_sec\": %.0f}%s\n",
               kernel, workload, static_cast<unsigned long long>(r.ops),
               static_cast<unsigned long long>(r.executed), r.wall_ms,
               r.ops_per_sec(), last ? "" : ",");
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

  // The six (kernel x workload) baseline cells run as independent
  // replications through the ParallelRunner — each cell builds its own
  // simulator from scratch. The pool is pinned to ONE worker so wall-time
  // measurements never share a core; the runner still provides the
  // seed-ordered result carrier and per-cell wall clocks.
  sim::Simulator profiled;  // reused for the profile demo below
  const sim::ParallelRunner cell_runner(1);
  const auto cells = cell_runner.run<WorkloadResult>(
      sim::ParallelRunner::seed_range(0, 6),
      [&](sim::ReplicationContext& ctx) -> WorkloadResult {
        switch (ctx.index) {
          case 0: {
            LegacySimulator sim;
            return churn_workload(sim, std::string_view("rel.rto"), kNodes,
                                  kChurnRounds);
          }
          case 1: {
            LegacySimulator sim;
            return delivery_workload(sim, std::string_view("net.deliver"),
                                     kDeliveryEvents);
          }
          case 2: {
            LegacySimulator sim;
            return periodic_workload(sim, std::string_view("svc.tick"), kNodes,
                                     kPeriodicTicks);
          }
          case 3: {
            sim::Simulator sim;
            return churn_workload(sim, sim.intern("rel.rto"), kNodes,
                                  kChurnRounds);
          }
          case 4: {
            sim::Simulator sim;
            return delivery_workload(sim, sim.intern("net.deliver"),
                                     kDeliveryEvents);
          }
          default: {
            sim::Simulator sim;
            return periodic_workload(sim, sim.intern("svc.tick"), kNodes,
                                     kPeriodicTicks);
          }
        }
      });
  const WorkloadResult& legacy_churn = cells.replications[0].payload;
  const WorkloadResult& legacy_delivery = cells.replications[1].payload;
  const WorkloadResult& legacy_periodic = cells.replications[2].payload;
  const WorkloadResult& slab_churn = cells.replications[3].payload;
  const WorkloadResult& slab_delivery = cells.replications[4].payload;
  const WorkloadResult& slab_periodic = cells.replications[5].payload;
  print_result("legacy", "churn", legacy_churn);
  print_result("legacy", "delivery", legacy_delivery);
  print_result("legacy", "periodic", legacy_periodic);
  print_result("slab", "churn", slab_churn);
  print_result("slab", "delivery", slab_delivery);
  print_result("slab", "periodic", slab_periodic);

  const double churn_speedup =
      slab_churn.ops_per_sec() / legacy_churn.ops_per_sec();
  const double delivery_speedup =
      slab_delivery.ops_per_sec() / legacy_delivery.ops_per_sec();
  const double periodic_speedup =
      slab_periodic.ops_per_sec() / legacy_periodic.ops_per_sec();
  bench::row("");
  bench::row("  speedup vs seed kernel: churn %.2fx, delivery %.2fx, periodic %.2fx",
             churn_speedup, delivery_speedup, periodic_speedup);

  // Per-tag profile demo: a mixed workload on one simulator with wall-time
  // accumulation on, printed the way every bench can now print it.
  profiled.set_profiling(true);
  churn_workload(profiled, profiled.intern("rel.rto"), 1000, 10);
  delivery_workload(profiled, profiled.intern("net.deliver"), 50'000);
  periodic_workload(profiled, profiled.intern("svc.tick"), 1000, 20);
  bench::row("");
  bench::row("per-tag kernel profile (mixed workload):");
  std::printf("%s", profiled.profile_table().c_str());

  // JSON row for the perf trajectory.
  std::FILE* f = std::fopen("BENCH_kernel.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"bench_kernel\",\n");
    std::fprintf(f, "  \"nodes\": %d, \"churn_rounds\": %d, \"delivery_events\": %d,\n",
                 kNodes, kChurnRounds, kDeliveryEvents);
    std::fprintf(f, "  \"workloads\": [\n");
    json_workload(f, "legacy", "churn", legacy_churn, false);
    json_workload(f, "legacy", "delivery", legacy_delivery, false);
    json_workload(f, "legacy", "periodic", legacy_periodic, false);
    json_workload(f, "slab", "churn", slab_churn, false);
    json_workload(f, "slab", "delivery", slab_delivery, false);
    json_workload(f, "slab", "periodic", slab_periodic, true);
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"speedup\": {\"churn\": %.3f, \"delivery\": %.3f, \"periodic\": %.3f},\n",
                 churn_speedup, delivery_speedup, periodic_speedup);
    std::fprintf(f, "  \"profile\": [\n");
    const auto rows = profiled.profile();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"tag\": \"%s\", \"scheduled\": %llu, \"executed\": "
                   "%llu, \"cancelled\": %llu, \"busy_ms\": %.3f}%s\n",
                   r.tag.c_str(), static_cast<unsigned long long>(r.scheduled),
                   static_cast<unsigned long long>(r.executed),
                   static_cast<unsigned long long>(r.cancelled), r.busy_ms,
                   i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    bench::row("");
    bench::row("wrote BENCH_kernel.json");
  }
  return 0;
}
