// E1 — Assured synthesis at scale.
//
// Paper claim (§III): "it should be possible to assemble (or re-assemble
// ...) composite assets comprising an IoBT of possibly 1,000s to 10,000s
// of nodes on demand and within an appropriately short time (e.g.,
// minutes, if needed)".
//
// Series regenerated:
//   (a) greedy composition wall time / solution size vs candidate count
//       N in {1k, 2k, 4k, 8k, 16k},
//   (b) solver quality ladder (greedy vs local-search vs exact) on small
//       instances where exact search is tractable,
//   (c) repair-vs-recompose work after losing 10% of members.

#include <memory>

#include "bench_util.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "synthesis/composer.h"
#include "flow/placement.h"
#include "synthesis/decompose.h"

namespace {

using namespace iobt;
using synthesis::Candidate;
using synthesis::Composer;
using synthesis::Composite;
using synthesis::MissionSpec;
using synthesis::Solver;

/// Synthetic recruitment pool: mixed sensors spread over a city-sized
/// area, trust mostly high, heterogeneous cost.
std::vector<Candidate> make_pool(std::size_t n, sim::Rng& rng) {
  std::vector<Candidate> pool;
  pool.reserve(n);
  const double side = 4000.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Candidate c;
    c.asset = i;
    c.position = {rng.uniform(0, side), rng.uniform(0, side)};
    const std::size_t kind = rng.categorical({0.4, 0.3, 0.2, 0.1});
    switch (kind) {
      case 0:
        c.sensors = {{things::Modality::kCamera, rng.uniform(100, 250), 0.8, 0.02}};
        c.cost = 1.0;
        break;
      case 1:
        c.sensors = {{things::Modality::kAcoustic, rng.uniform(150, 300), 0.75, 0.02}};
        c.cost = 1.0;
        break;
      case 2:  // drone-grade
        c.sensors = {{things::Modality::kCamera, rng.uniform(300, 500), 0.9, 0.02},
                     {things::Modality::kRadar, rng.uniform(400, 700), 0.85, 0.02}};
        c.compute.flops = 2e10;
        c.cost = 3.0;
        break;
      default:  // edge compute
        c.compute.flops = 1e12;
        c.cost = 5.0;
        break;
    }
    c.trust = rng.uniform(0.55, 1.0);
    pool.push_back(std::move(c));
  }
  return pool;
}

MissionSpec city_spec() {
  MissionSpec spec;
  spec.name = "bench";
  spec.sensing.push_back(
      {things::Modality::kCamera, {{0, 0}, {4000, 4000}}, 0.85, 0.5, 16});
  spec.sensing.push_back(
      {things::Modality::kAcoustic, {{0, 0}, {4000, 4000}}, 0.6, 0.5, 12});
  spec.compute.total_flops = 5e12;
  return spec;
}

double total_cost(const std::vector<Candidate>& pool, const Composite& c) {
  double s = 0;
  for (std::size_t m : c.member_indices) s += pool[m].cost;
  return s;
}

}  // namespace

int main() {
  using namespace iobt::bench;

  header("E1: synthesis scale",
         "assemble composites of 1,000s-10,000s of nodes within minutes");

  row("%-8s %-10s %-12s %-10s %-12s %-10s", "N", "solver", "time_ms", "members",
      "evaluations", "feasible");
  for (std::size_t n : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    sim::Rng rng(1000 + n);
    auto pool = make_pool(n, rng);
    Composer comp(city_spec(), pool, [](std::size_t) { return 1; });
    WallTimer t;
    const Composite c = comp.compose(Solver::kGreedy);
    row("%-8zu %-10s %-12.1f %-10zu %-12llu %-10s", n, "greedy", t.ms(),
        c.member_assets.size(), static_cast<unsigned long long>(c.evaluations),
        c.assurance.meets_spec ? "yes" : "no");
  }
  for (std::size_t n : {1000u, 2000u}) {
    sim::Rng rng(1000 + n);
    auto pool = make_pool(n, rng);
    Composer comp(city_spec(), pool, [](std::size_t) { return 1; });
    WallTimer t;
    const Composite c = comp.compose(Solver::kLocalSearch);
    row("%-8zu %-10s %-12.1f %-10zu %-12llu %-10s", n, "localsrch", t.ms(),
        c.member_assets.size(), static_cast<unsigned long long>(c.evaluations),
        c.assurance.meets_spec ? "yes" : "no");
  }

  std::printf("\nsolver quality ladder (small instances, cost = recruited cost):\n");
  row("%-8s %-10s %-10s %-10s", "seed", "greedy", "localsrch", "exact");
  {
    struct LadderOut {
      double greedy = 0, localsrch = 0, exact = 0;
    };
    const sim::ParallelRunner runner(bench::bench_workers());
    const auto seeds = sim::ParallelRunner::seed_range(1, 8);
    const auto outcome =
        runner.run<LadderOut>(seeds, [](sim::ReplicationContext& ctx) {
          sim::Rng rng(ctx.seed);
          std::vector<Candidate> pool;
          for (std::uint32_t i = 0; i < 18; ++i) {
            Candidate c;
            c.asset = i;
            c.position = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
            c.sensors = {
                {iobt::things::Modality::kCamera, rng.uniform(250, 500), 0.9, 0.02}};
            c.cost = rng.uniform(1.0, 3.0);
            pool.push_back(std::move(c));
          }
          MissionSpec spec;
          spec.sensing.push_back(
              {iobt::things::Modality::kCamera, {{0, 0}, {1000, 1000}}, 0.6, 0.5, 6});
          Composer comp(spec, pool, [](std::size_t) { return 1; });
          LadderOut out;
          out.greedy = total_cost(pool, comp.compose(Solver::kGreedy));
          out.localsrch = total_cost(pool, comp.compose(Solver::kLocalSearch));
          out.exact = total_cost(pool, comp.compose(Solver::kExact));
          return out;
        });
    for (const auto& r : outcome.replications) {
      row("%-8llu %-10.2f %-10.2f %-10.2f",
          static_cast<unsigned long long>(r.seed), r.payload.greedy,
          r.payload.localsrch, r.payload.exact);
    }
    row("%-8s %-10s %-10s %-10s", "mean±sd",
        bench::pm(outcome.stats([](const LadderOut& o) { return o.greedy; }), 2)
            .c_str(),
        bench::pm(outcome.stats([](const LadderOut& o) { return o.localsrch; }), 2)
            .c_str(),
        bench::pm(outcome.stats([](const LadderOut& o) { return o.exact; }), 2)
            .c_str());
  }

  std::printf(
      "\nhierarchical decomposition (N=8000, camera+acoustic city spec):\n");
  row("%-8s %-12s %-14s %-16s %-10s %-10s", "tiles", "time_ms", "total_evals",
      "critical_path", "members", "feasible");
  for (std::size_t tiles : {1u, 2u, 4u}) {
    sim::Rng rng(9000);
    auto pool = make_pool(8000, rng);
    WallTimer t;
    const auto d = iobt::synthesis::compose_decomposed(
        city_spec(), pool, [](std::size_t) { return 1; }, tiles);
    row("%-8zu %-12.1f %-14llu %-16llu %-10zu %-10s", tiles, t.ms(),
        static_cast<unsigned long long>(d.total_evaluations),
        static_cast<unsigned long long>(d.critical_path_evaluations),
        d.composite.member_assets.size(),
        d.composite.assurance.meets_spec ? "yes" : "no");
  }

  std::printf(
      "\nfunctional composition: tracking-service placement (4..32 cameras):\n");
  row("%-10s %-12s %-14s %-16s %-10s", "cameras", "time_ms", "latency_s",
      "net_cost(bps*h)", "feasible");
  for (std::size_t cams : {4u, 8u, 16u, 32u}) {
    iobt::flow::PlacementProblem p;
    p.graph = iobt::flow::make_tracking_service(cams, 2.0);
    // Hosts: one mote per camera + 2 vehicles + 1 edge server, 2 hops apart.
    for (std::size_t i = 0; i < cams; ++i) {
      p.hosts.push_back({static_cast<iobt::flow::HostId>(i), 2e6});
      p.pinned.push_back({static_cast<iobt::flow::OperatorId>(i),
                          static_cast<iobt::flow::HostId>(i)});
    }
    p.hosts.push_back({static_cast<iobt::flow::HostId>(cams), 5e9});
    p.hosts.push_back({static_cast<iobt::flow::HostId>(cams + 1), 5e9});
    p.hosts.push_back({static_cast<iobt::flow::HostId>(cams + 2), 1e12});
    const std::size_t nh = p.hosts.size();
    p.hops.assign(nh, std::vector<int>(nh, 2));
    for (std::size_t i = 0; i < nh; ++i) p.hops[i][i] = 0;
    // Sink pinned to the edge server.
    p.pinned.push_back(
        {static_cast<iobt::flow::OperatorId>(cams + 3),
         static_cast<iobt::flow::HostId>(nh - 1)});
    WallTimer t;
    const auto pl = iobt::flow::place(p);
    row("%-10zu %-12.1f %-14.3f %-16.0f %-10s", cams, t.ms(),
        pl.critical_path_latency_s, pl.network_cost_bps_hops,
        pl.feasible ? "yes" : "no");
  }

  std::printf("\nre-synthesis after 10%% member loss (N=4000):\n");
  row("%-12s %-12s %-12s", "mode", "time_ms", "evaluations");
  {
    sim::Rng rng(4242);
    auto pool = make_pool(4000, rng);
    Composer comp(city_spec(), pool, [](std::size_t) { return 1; });
    Composite c = comp.compose(Solver::kGreedy);
    std::vector<std::uint32_t> lost;
    for (std::size_t i = 0; i < c.member_assets.size() / 10; ++i) {
      lost.push_back(c.member_assets[i]);
    }
    WallTimer t;
    const Composite repaired = comp.repair(c, lost);
    row("%-12s %-12.1f %-12llu", "repair", t.ms(),
        static_cast<unsigned long long>(repaired.evaluations));
    t.reset();
    const Composite fresh = comp.compose(Solver::kGreedy);
    row("%-12s %-12.1f %-12llu", "recompose", t.ms(),
        static_cast<unsigned long long>(fresh.evaluations));
  }
  return 0;
}
