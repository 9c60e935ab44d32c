// R1 — Replication-parallelism harness.
//
// The paper's scale claim (§III, E1: composites of "1,000s to 10,000s of
// nodes ... within minutes") is exercised through seed sweeps: many
// independent replications of a deterministic simulation. This bench
// measures how ParallelRunner scales that sweep across a worker pool on a
// synthesis-sized workload (per replication: generate a ~1,200-candidate
// recruitment pool, run greedy composition, evaluate assurance), and — the
// part perf numbers cannot show — verifies that the aggregated output is
// BIT-IDENTICAL for every worker count. Emits BENCH_runner.json so the
// speedup trajectory is tracked across PRs.

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "sim/runner.h"
#include "synthesis/composer.h"

namespace {

using namespace iobt;
using synthesis::Candidate;
using synthesis::Composer;
using synthesis::MissionSpec;
using synthesis::Solver;

constexpr std::size_t kPoolSize = 2500;
constexpr std::size_t kReplications = 16;

std::vector<Candidate> make_pool(std::size_t n, sim::Rng& rng) {
  std::vector<Candidate> pool;
  pool.reserve(n);
  const double side = 3000.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Candidate c;
    c.asset = i;
    c.position = {rng.uniform(0, side), rng.uniform(0, side)};
    const std::size_t kind = rng.categorical({0.5, 0.3, 0.2});
    switch (kind) {
      case 0:
        c.sensors = {{things::Modality::kCamera, rng.uniform(100, 250), 0.8, 0.02}};
        c.cost = 1.0;
        break;
      case 1:
        c.sensors = {{things::Modality::kAcoustic, rng.uniform(150, 300), 0.75, 0.02}};
        c.cost = 1.0;
        break;
      default:
        c.sensors = {{things::Modality::kCamera, rng.uniform(300, 500), 0.9, 0.02}};
        c.compute.flops = 2e10;
        c.cost = 3.0;
        break;
    }
    c.trust = rng.uniform(0.55, 1.0);
    pool.push_back(std::move(c));
  }
  return pool;
}

MissionSpec spec() {
  MissionSpec s;
  s.name = "bench_runner";
  s.sensing.push_back(
      {things::Modality::kCamera, {{0, 0}, {3000, 3000}}, 0.8, 0.5, 12});
  s.sensing.push_back(
      {things::Modality::kAcoustic, {{0, 0}, {3000, 3000}}, 0.55, 0.5, 8});
  return s;
}

/// One replication of the seed-sweep workload: pool generation + greedy
/// composition, metrics recorded the way a real experiment records them.
double replicate(sim::ReplicationContext& ctx) {
  sim::Rng rng(ctx.seed);
  auto pool = make_pool(kPoolSize, rng);
  Composer comp(spec(), pool, [](std::size_t) { return 1; });
  const auto composite = comp.compose(Solver::kGreedy);
  double cost = 0;
  for (std::size_t m : composite.member_indices) cost += pool[m].cost;
  ctx.metrics.count("compose.evaluations",
                    static_cast<double>(composite.evaluations));
  ctx.metrics.observe("compose.members",
                      static_cast<double>(composite.member_assets.size()));
  ctx.metrics.observe("compose.cost", cost);
  ctx.metrics.gauge("compose.feasible",
                    composite.assurance.meets_spec ? 1.0 : 0.0);
  return cost;
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

}  // namespace

int main() {
  using namespace iobt::bench;

  header("R1: parallel replication harness",
         "seed sweeps are embarrassingly parallel; aggregated output must be "
         "bit-identical for any worker count");

  const auto seeds = sim::ParallelRunner::seed_range(1000, kReplications);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("replications=%zu  pool=%zu candidates  hardware_concurrency=%u\n\n",
              kReplications, kPoolSize, hw);

  struct ConfigRow {
    std::size_t workers;
    double wall_ms;
    std::uint64_t digest;
    std::uint64_t payload_hash;
  };
  std::vector<ConfigRow> rows;

  row("%-10s %-12s %-12s %-18s", "workers", "wall_ms", "speedup", "merged_digest");
  double serial_ms = 0;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
    const sim::ParallelRunner runner(workers);
    const auto outcome = runner.run<double>(seeds, replicate);
    std::uint64_t payload_hash = 0xcbf29ce484222325ULL;
    for (const auto& r : outcome.replications) {
      payload_hash = (payload_hash ^ bits_of(r.payload)) * 0x100000001b3ULL;
    }
    if (workers == 0) serial_ms = outcome.wall_ms;
    rows.push_back(
        {workers, outcome.wall_ms, outcome.merged.digest(), payload_hash});
    row("%-10zu %-12.1f %-12.2f %016llx", workers, outcome.wall_ms,
        serial_ms / outcome.wall_ms,
        static_cast<unsigned long long>(outcome.merged.digest()));
  }

  bool identical = true;
  for (const auto& r : rows) {
    identical = identical && r.digest == rows[0].digest &&
                r.payload_hash == rows[0].payload_hash;
  }
  row("");
  row("aggregated output bit-identical across worker counts: %s",
      identical ? "yes" : "NO — DETERMINISM VIOLATION");

  write_artifact("BENCH_runner.json", [&](trace::JsonWriter& w) {
    w.key("replications").integer(kReplications);
    w.key("pool_candidates").integer(kPoolSize);
    w.key("hardware_concurrency").integer(hw);
    w.key("deterministic_across_workers").boolean(identical);
    w.key("configs").begin_array();
    for (const auto& r : rows) {
      w.begin_object().key("workers").integer(r.workers);
      w.key("wall_ms").number(r.wall_ms, 3);
      w.key("speedup").number(serial_ms / r.wall_ms, 3);
      w.key("merged_digest").hex(r.digest, 16).end_object();
    }
    w.end_array();
  });
  return identical ? 0 : 1;
}
