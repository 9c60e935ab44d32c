// E3 — Social sensing truth discovery.
//
// Paper claim (§III-A, refs [1-4]): algorithms "automatically discover
// ground-truth from possibly noisy, biased, linguistically ambiguous, and
// conflicting claims" and "characterize reliability of sources".
//
// Series regenerated:
//   (a) decision accuracy vs adversary fraction for EM vs majority vote
//       vs known-reliability Bayesian oracle,
//   (b) source-reliability estimation error (mean |est - true|) vs
//       adversary fraction,
//   (c) accuracy vs report density (how sparse can the crowd be).
//
// Every cell is mean ± stddev over kReps independent replications, executed
// on the ParallelRunner worker pool; output is identical for any pool size.

#include <cmath>

#include "bench_util.h"
#include "sim/runner.h"
#include "social/claims.h"

namespace {

struct TrialOut {
  double em = 0;
  double vote = 0;
  double oracle = 0;
  double rel_err = 0;
};

constexpr std::size_t kReps = 8;

}  // namespace

int main() {
  using namespace iobt;
  using namespace iobt::bench;

  header("E3: truth discovery",
         "discover ground truth from noisy conflicting claims; characterize sources");

  const sim::ParallelRunner runner(bench_workers());

  row("%-12s %-16s %-16s %-16s %-16s", "adv_frac", "EM", "vote", "oracle",
      "rel_err(EM)");
  for (double adv : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    std::vector<std::uint64_t> seeds(kReps);
    for (std::size_t t = 0; t < kReps; ++t) {
      seeds[t] = 1000 * t + static_cast<std::uint64_t>(adv * 100);
    }
    const auto outcome = runner.run<TrialOut>(seeds, [&](sim::ReplicationContext& ctx) {
      sim::Rng rng(ctx.seed);
      social::ClaimGenConfig cfg;
      cfg.num_sources = 50;
      cfg.num_variables = 300;
      cfg.report_density = 0.35;
      cfg.adversary_fraction = adv;
      cfg.adversary_lie_probability = 0.9;
      const auto g = social::generate_claims(cfg, rng);
      const auto em =
          social::em_truth_discovery(g.claims, cfg.num_sources, cfg.num_variables);
      const auto vote = social::majority_vote(g.claims, cfg.num_variables);
      const auto oracle = social::weighted_bayes(g.claims, g.true_reliability,
                                                 cfg.num_variables, cfg.prior_true);
      TrialOut out;
      out.em = social::decision_accuracy(em.truth_probability, g.ground_truth);
      out.vote = social::decision_accuracy(vote, g.ground_truth);
      out.oracle = social::decision_accuracy(oracle, g.ground_truth);
      double err = 0;
      for (std::size_t i = 0; i < cfg.num_sources; ++i) {
        err += std::abs(em.source_reliability[i] - g.true_reliability[i]);
      }
      out.rel_err = err / static_cast<double>(cfg.num_sources);
      ctx.metrics.observe("em.accuracy", out.em);
      return out;
    });
    row("%-12.1f %-16s %-16s %-16s %-16s", adv,
        pm(outcome.stats([](const TrialOut& o) { return o.em; })).c_str(),
        pm(outcome.stats([](const TrialOut& o) { return o.vote; })).c_str(),
        pm(outcome.stats([](const TrialOut& o) { return o.oracle; })).c_str(),
        pm(outcome.stats([](const TrialOut& o) { return o.rel_err; })).c_str());
  }

  std::printf("\naccuracy vs report density (adv_frac=0.3):\n");
  row("%-12s %-16s %-16s", "density", "EM", "vote");
  for (double density : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    std::vector<std::uint64_t> seeds(kReps);
    for (std::size_t t = 0; t < kReps; ++t) {
      seeds[t] = 5000 + 1000 * t + static_cast<std::uint64_t>(density * 100);
    }
    const auto outcome = runner.run<TrialOut>(seeds, [&](sim::ReplicationContext& ctx) {
      sim::Rng rng(ctx.seed);
      social::ClaimGenConfig cfg;
      cfg.num_sources = 50;
      cfg.num_variables = 300;
      cfg.report_density = density;
      cfg.adversary_fraction = 0.3;
      const auto g = social::generate_claims(cfg, rng);
      const auto em =
          social::em_truth_discovery(g.claims, cfg.num_sources, cfg.num_variables);
      const auto vote = social::majority_vote(g.claims, cfg.num_variables);
      TrialOut out;
      out.em = social::decision_accuracy(em.truth_probability, g.ground_truth);
      out.vote = social::decision_accuracy(vote, g.ground_truth);
      return out;
    });
    row("%-12.2f %-16s %-16s", density,
        pm(outcome.stats([](const TrialOut& o) { return o.em; })).c_str(),
        pm(outcome.stats([](const TrialOut& o) { return o.vote; })).c_str());
  }
  return 0;
}
