// E10 — Controller diversity (§IV-B).
//
// Paper claim: "diversity is well documented as a way to improve the
// performance of human workgroups. Studies have shown repeatedly that
// diverse groups outperform homogeneous groups. Thus, instead [of] brittle
// controllers designed with fixed assumptions, one may design novel
// controllers that are parameterized differently but adapt their
// parameterization by observing their neighbors."
//
// Operationalization: a population of controllers with 2-D parameter
// vectors; the (unknown, per-scenario) optimum moves between scenarios.
// Performance is -(||p - optimum||^2). Populations evolve by neighbor
// imitation on a ring. We sweep the initial parameter spread (diversity)
// and report the population's best and mean performance after imitation
// rounds — the diverse population finds the optimum, the homogeneous one
// is stuck with its initial guess. Each spread is mean ± stddev over
// kReps replications run on the ParallelRunner pool.

#include <cmath>

#include "adapt/control.h"
#include "bench_util.h"
#include "sim/rng.h"
#include "sim/runner.h"

namespace {

using namespace iobt;

struct Outcome {
  double mean_perf = 0;
  double best_perf = 0;
  double final_diversity = 0;
};

Outcome run(double initial_spread, std::size_t pop_size, sim::Rng& rng) {
  // Controllers start around a legacy design point (0, 0); the real
  // environment wants (3, -2).
  const double opt_x = 3.0, opt_y = -2.0;
  std::vector<std::vector<double>> params(pop_size);
  for (auto& p : params) {
    p = {rng.normal(0.0, initial_spread), rng.normal(0.0, initial_spread)};
  }
  adapt::ImitationPopulation pop(params);

  std::vector<std::vector<std::size_t>> neighbors(pop_size);
  for (std::size_t i = 0; i < pop_size; ++i) {
    neighbors[i] = {(i + pop_size - 1) % pop_size, (i + 1) % pop_size};
  }

  auto perf = [&](std::size_t i) {
    const auto& p = pop.params(i);
    const double dx = p[0] - opt_x, dy = p[1] - opt_y;
    return -(dx * dx + dy * dy);
  };

  for (int round = 0; round < 60; ++round) {
    std::vector<double> scores(pop_size);
    for (std::size_t i = 0; i < pop_size; ++i) scores[i] = perf(i);
    pop.imitate(scores, neighbors, 0.4);
  }

  Outcome out;
  out.best_perf = -1e300;
  for (std::size_t i = 0; i < pop_size; ++i) {
    const double s = perf(i);
    out.mean_perf += s;
    out.best_perf = std::max(out.best_perf, s);
  }
  out.mean_perf /= static_cast<double>(pop_size);
  out.final_diversity = pop.diversity();
  return out;
}

constexpr std::size_t kReps = 10;

}  // namespace

int main() {
  using namespace iobt::bench;

  header("E10: controller diversity",
         "diverse groups outperform homogeneous groups; controllers adapt their "
         "parameterization by observing neighbors");

  const iobt::sim::ParallelRunner runner(bench_workers());

  row("%-16s %-16s %-16s %-16s", "init_spread", "mean_perf", "best_perf",
      "final_diversity");
  for (double spread : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    std::vector<std::uint64_t> seeds(kReps);
    for (std::size_t t = 0; t < kReps; ++t) {
      seeds[t] = 1 + 17 * t + static_cast<std::uint64_t>(spread * 10);
    }
    const auto outcome =
        runner.run<Outcome>(seeds, [&](iobt::sim::ReplicationContext& ctx) {
          iobt::sim::Rng rng(ctx.seed);
          return run(spread, 24, rng);
        });
    row("%-16.1f %-16s %-16s %-16s", spread,
        pm(outcome.stats([](const Outcome& o) { return o.mean_perf; }), 2).c_str(),
        pm(outcome.stats([](const Outcome& o) { return o.best_perf; }), 2).c_str(),
        pm(outcome.stats([](const Outcome& o) { return o.final_diversity; }), 4)
            .c_str());
  }
  std::printf(
      "\n(perf = -squared distance to the true optimum at (3,-2); homogeneous\n"
      " populations (spread 0) cannot move — imitation needs variation to select"
      "\n from.)\n");
  return 0;
}
