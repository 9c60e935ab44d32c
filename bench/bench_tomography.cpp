// E7 — Network tomography and failure localization.
//
// Paper claim (§V-A, refs [19-22]): system health "needs to be inferred
// (and damage, if any, assessed) without direct component observation";
// monitor placement should maximize identifiability.
//
// Series regenerated:
//   (a) link identifiability vs number of monitors (greedy placement vs
//       random placement) on grid and random-geometric topologies,
//   (b) metric estimation error vs measurement noise,
//   (c) failure-localization precision/recall vs number of simultaneous
//       link failures.

#include <cmath>

#include "bench_util.h"
#include "diag/tomography.h"
#include "sim/runner.h"

namespace {

using namespace iobt;

std::vector<net::NodeId> random_monitors(std::size_t n_nodes, std::size_t k,
                                         sim::Rng& rng) {
  auto idx = rng.sample_indices(n_nodes, k);
  std::vector<net::NodeId> out;
  for (auto i : idx) out.push_back(static_cast<net::NodeId>(i));
  return out;
}

}  // namespace

int main() {
  using namespace iobt::bench;

  header("E7: network tomography",
         "infer internal health from end-to-end observations; place monitors "
         "for identifiability");

  const sim::ParallelRunner runner(bench::bench_workers());

  const auto grid = net::Topology::grid(5, 5);
  row("%-10s %-16s %-16s", "monitors", "greedy_ident", "random_ident");
  for (std::size_t k : {2u, 4u, 6u, 8u, 12u}) {
    const auto greedy = diag::greedy_monitor_placement(grid, k);
    const double gi = diag::TomographySystem(grid, greedy).identifiability();
    constexpr std::size_t kReps = 8;
    std::vector<std::uint64_t> seeds(kReps);
    for (std::size_t t = 0; t < kReps; ++t) seeds[t] = 50 + t * 17 + k;
    const auto outcome =
        runner.run<double>(seeds, [&](sim::ReplicationContext& ctx) {
          sim::Rng rng(ctx.seed);
          return diag::TomographySystem(grid, random_monitors(25, k, rng))
              .identifiability();
        });
    row("%-10zu %-16.3f %-16s", k, gi,
        bench::pm(outcome.stats([](const double& x) { return x; })).c_str());
  }

  std::printf("\nestimation error vs measurement noise (5x5 grid, 12 monitors):\n");
  row("%-12s %-20s", "noise_sd", "rmse(identifiable)");
  {
    const auto monitors = diag::greedy_monitor_placement(grid, 12);
    diag::TomographySystem sys(grid, monitors);
    std::vector<double> truth(sys.link_count());
    sim::Rng mrng(3);
    for (double& x : truth) x = mrng.uniform(1.0, 5.0);
    const auto ident = sys.identifiable_links();
    for (double noise : {0.0, 0.01, 0.05, 0.2, 0.5}) {
      sim::Rng nrng(9 + static_cast<std::uint64_t>(noise * 1000));
      const auto est = sys.estimate(sys.measure(truth, noise, &nrng));
      double se = 0;
      std::size_t n = 0;
      for (std::size_t i = 0; i < truth.size(); ++i) {
        if (!ident[i]) continue;
        se += (est[i] - truth[i]) * (est[i] - truth[i]);
        ++n;
      }
      row("%-12.2f %-20.4f", noise, n ? std::sqrt(se / static_cast<double>(n)) : 0.0);
    }
  }

  std::printf("\nfailure localization (5x5 grid, all-node monitors):\n");
  row("%-10s %-12s %-12s", "failures", "precision", "recall");
  {
    std::vector<net::NodeId> all;
    for (net::NodeId v = 0; v < 25; ++v) all.push_back(v);
    diag::TomographySystem sys(grid, all);
    struct PrTrial {
      double precision = 0;
      double recall = 0;
    };
    for (std::size_t nfail : {1u, 2u, 4u, 6u}) {
      constexpr std::size_t kReps = 10;
      std::vector<std::uint64_t> seeds(kReps);
      for (std::size_t t = 0; t < kReps; ++t) seeds[t] = 100 + t * 13 + nfail;
      const auto outcome =
          runner.run<PrTrial>(seeds, [&](sim::ReplicationContext& ctx) {
            sim::Rng rng(ctx.seed);
            const auto failed_idx = rng.sample_indices(sys.link_count(), nfail);
            std::vector<bool> is_failed(sys.link_count(), false);
            for (auto i : failed_idx) is_failed[i] = true;
            std::vector<bool> path_ok;
            for (const auto& p : sys.paths()) {
              bool ok = true;
              for (std::size_t li : p.link_indices) ok &= !is_failed[li];
              path_ok.push_back(ok);
            }
            const auto d = sys.localize_failures(path_ok);
            std::size_t tp = 0;
            for (auto li : d.minimal_explanation) tp += is_failed[li] ? 1 : 0;
            PrTrial out;
            out.precision =
                d.minimal_explanation.empty()
                    ? 1.0
                    : static_cast<double>(tp) /
                          static_cast<double>(d.minimal_explanation.size());
            out.recall = static_cast<double>(tp) / static_cast<double>(nfail);
            return out;
          });
      row("%-10zu %-12.3f %-12.3f", nfail,
          outcome.stats([](const PrTrial& o) { return o.precision; }).mean(),
          outcome.stats([](const PrTrial& o) { return o.recall; }).mean());
    }
  }
  return 0;
}
