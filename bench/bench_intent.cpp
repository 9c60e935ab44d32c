// E5 — Game-theoretic command by intent.
//
// Paper claim (§IV-A): "by suitably choosing agent objective functions,
// one may be able to guarantee that the interactions between the multiple
// agents in the battlefield will converge to an equilibrium in which the
// desired objectives are met ... The approach is scalable because each
// agent is empowered to perform the operations needed to optimize its
// objective function without explicit coordination with other agents."
//
// Series regenerated:
//   (a) best-response convergence rounds & welfare ratio (vs centralized
//       greedy) as agent count scales,
//   (b) hierarchical decomposition: parallel rounds and welfare vs number
//       of subordinate commands,
//   (c) log-linear (noisy) dynamics closing the gap to best response.

#include "bench_util.h"
#include "intent/games.h"
#include "intent/security_game.h"
#include "sim/runner.h"

namespace {

struct BrTrial {
  double rounds = 0;
  double moves = 0;
  double welfare = 0;
  double ratio = 0;  // BR welfare / centralized-greedy welfare
};

}  // namespace

int main() {
  using namespace iobt;
  using namespace iobt::bench;

  header("E5: command by intent",
         "agents optimizing local objectives converge to mission equilibria, "
         "scalably and without explicit coordination");

  const sim::ParallelRunner runner(bench_workers());
  constexpr std::size_t kReps = 8;

  row("%-8s %-8s %-10s %-10s %-16s %-16s", "agents", "tasks", "BR_rounds",
      "BR_moves", "welfareBR", "BR/central");
  for (std::size_t n : {10u, 25u, 50u, 100u, 200u, 400u}) {
    const std::size_t tasks = n / 3 + 2;
    const auto seeds = sim::ParallelRunner::seed_range(n * 31, kReps);
    const auto outcome =
        runner.run<BrTrial>(seeds, [&](sim::ReplicationContext& ctx) {
          sim::Rng rng(ctx.seed);
          const auto g = intent::TaskAllocationGame::random_instance(n, tasks, rng);
          const auto br = intent::best_response_dynamics(g);
          const auto ct = intent::centralized_greedy(g);
          BrTrial out;
          out.rounds = static_cast<double>(br.rounds);
          out.moves = static_cast<double>(br.moves);
          out.welfare = br.final_welfare;
          out.ratio =
              ct.final_welfare > 0 ? br.final_welfare / ct.final_welfare : 1.0;
          return out;
        });
    row("%-8zu %-8zu %-10.1f %-10.1f %-16s %-16s", n, tasks,
        outcome.stats([](const BrTrial& o) { return o.rounds; }).mean(),
        outcome.stats([](const BrTrial& o) { return o.moves; }).mean(),
        pm(outcome.stats([](const BrTrial& o) { return o.welfare; }), 2).c_str(),
        pm(outcome.stats([](const BrTrial& o) { return o.ratio; })).c_str());
  }

  std::printf("\nhierarchical decomposition (200 agents, 68 tasks):\n");
  row("%-10s %-16s %-12s %-14s", "clusters", "parallel_rounds", "welfare",
      "vs_flat_BR");
  {
    sim::Rng rng(7777);
    const auto g = intent::TaskAllocationGame::random_instance(200, 68, rng);
    const auto flat = intent::best_response_dynamics(g);
    for (std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
      const auto h = intent::hierarchical_decomposition(g, k);
      row("%-10zu %-16zu %-12.2f %-14.3f", k, h.rounds, h.final_welfare,
          flat.final_welfare > 0 ? h.final_welfare / flat.final_welfare : 1.0);
    }
  }

  std::printf(
      "\nsecurity game: jammer vs route mixing (6x6 grid, corner to corner):\n");
  {
    const auto topo = iobt::net::Topology::grid(6, 6);
    std::vector<iobt::net::NodeId> jammable;
    for (iobt::net::NodeId v = 1; v < 35; ++v) jammable.push_back(v);
    row("%-10s %-14s %-16s %-12s", "routes", "value_lower", "best_pure_value",
        "mix_gain");
    for (std::size_t k : {1u, 2u, 3u, 4u}) {
      const auto routes = intent::diverse_routes(topo, 0, 35, k);
      const auto g = intent::make_routing_game(routes, jammable, 0.1);
      const auto eq = intent::solve_fictitious_play(g, 30000);
      double best_pure = 0.0;
      for (std::size_t r = 0; r < routes.size(); ++r) {
        double worst = 1e9;
        for (std::size_t a = 0; a < jammable.size(); ++a) {
          worst = std::min(worst, g.payoff[r][a]);
        }
        best_pure = std::max(best_pure, worst);
      }
      row("%-10zu %-14.3f %-16.3f %-12.3f", routes.size(), eq.value_lower,
          best_pure, eq.value_lower - best_pure);
    }
  }

  std::printf("\nlog-linear dynamics vs temperature (50 agents, 18 tasks):\n");
  row("%-12s %-12s %-14s", "temperature", "welfare", "vs_BR");
  {
    sim::Rng grng(31);
    const auto g = intent::TaskAllocationGame::random_instance(50, 18, grng);
    const auto br = intent::best_response_dynamics(g);
    for (double temp : {0.5, 0.1, 0.02, 0.005}) {
      sim::Rng rng(static_cast<std::uint64_t>(temp * 10000) + 5);
      const auto ll = intent::log_linear_dynamics(g, rng, temp, 30000);
      row("%-12.3f %-12.2f %-14.3f", temp, ll.final_welfare,
          br.final_welfare > 0 ? ll.final_welfare / br.final_welfare : 1.0);
    }
  }
  return 0;
}
