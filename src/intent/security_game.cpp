#include "intent/security_game.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace iobt::intent {

MixedEquilibrium solve_fictitious_play(const MatrixGame& game,
                                       std::size_t iterations) {
  const std::size_t m = game.rows(), n = game.cols();
  MixedEquilibrium eq;
  if (m == 0 || n == 0) return eq;

  std::vector<double> row_counts(m, 0.0), col_counts(n, 0.0);
  // Cumulative payoff each pure strategy would have earned against the
  // opponent's play history — best response = argmax/argmin over these.
  std::vector<double> row_cum(m, 0.0);  // row's payoff sums per row action
  std::vector<double> col_cum(n, 0.0);  // row-payoff sums per column action

  std::size_t row_play = 0, col_play = 0;
  for (std::size_t it = 0; it < iterations; ++it) {
    // Record plays and update cumulative responses.
    row_counts[row_play] += 1.0;
    col_counts[col_play] += 1.0;
    for (std::size_t i = 0; i < m; ++i) row_cum[i] += game.payoff[i][col_play];
    for (std::size_t j = 0; j < n; ++j) col_cum[j] += game.payoff[row_play][j];

    // Best responses to the opponent's empirical mixture.
    row_play = 0;
    for (std::size_t i = 1; i < m; ++i) {
      if (row_cum[i] > row_cum[row_play]) row_play = i;
    }
    col_play = 0;  // attacker minimizes row payoff
    for (std::size_t j = 1; j < n; ++j) {
      if (col_cum[j] < col_cum[col_play]) col_play = j;
    }
  }

  const double total = static_cast<double>(iterations);
  eq.row_strategy.resize(m);
  eq.col_strategy.resize(n);
  for (std::size_t i = 0; i < m; ++i) eq.row_strategy[i] = row_counts[i] / total;
  for (std::size_t j = 0; j < n; ++j) eq.col_strategy[j] = col_counts[j] / total;

  // Value bounds: row's guaranteed floor under its mixture (worst column)
  // and row's ceiling under the attacker's mixture (best row).
  double floor = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j) {
    double v = 0.0;
    for (std::size_t i = 0; i < m; ++i) v += eq.row_strategy[i] * game.payoff[i][j];
    floor = std::min(floor, v);
  }
  double ceil = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < n; ++j) v += eq.col_strategy[j] * game.payoff[i][j];
    ceil = std::max(ceil, v);
  }
  eq.value_lower = floor;
  eq.value_upper = ceil;
  eq.value = (floor + ceil) / 2.0;
  eq.iterations = iterations;
  return eq;
}

double expected_payoff(const MatrixGame& game, const std::vector<double>& row_mix,
                       const std::vector<double>& col_mix) {
  assert(row_mix.size() == game.rows() && col_mix.size() == game.cols());
  double v = 0.0;
  for (std::size_t i = 0; i < game.rows(); ++i) {
    for (std::size_t j = 0; j < game.cols(); ++j) {
      v += row_mix[i] * col_mix[j] * game.payoff[i][j];
    }
  }
  return v;
}

MatrixGame make_routing_game(const std::vector<std::vector<net::NodeId>>& routes,
                             const std::vector<net::NodeId>& jammable,
                             double jammed_payoff) {
  MatrixGame g;
  g.payoff.assign(routes.size(), std::vector<double>(jammable.size(), 1.0));
  for (std::size_t r = 0; r < routes.size(); ++r) {
    for (std::size_t a = 0; a < jammable.size(); ++a) {
      for (const net::NodeId v : routes[r]) {
        if (v == jammable[a]) {
          g.payoff[r][a] = jammed_payoff;
          break;
        }
      }
    }
  }
  return g;
}

std::vector<std::vector<net::NodeId>> diverse_routes(const net::Topology& topo,
                                                     net::NodeId s, net::NodeId t,
                                                     std::size_t k) {
  std::vector<std::vector<net::NodeId>> routes;
  net::Topology work = topo;  // edges get carved out per found route
  for (std::size_t r = 0; r < k; ++r) {
    const auto sp = work.shortest_paths(s);
    const auto path = sp.path_to(t);
    if (path.size() < 2) break;
    routes.push_back(path);
    // Remove interior vertices' incident edges so the next route diverges.
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const auto neighbors = work.neighbors(path[i]);  // copy: we mutate
      for (const auto& nb : neighbors) work.remove_edge(path[i], nb.id);
    }
  }
  return routes;
}

}  // namespace iobt::intent
