#pragma once
// Controller diversity (§IV-B: "instead [of] brittle controllers designed
// with fixed assumptions, one may design novel controllers that are
// parameterized differently but adapt their parameterization by observing
// their neighbors"). bench_diversity (E10) drives it.

#include <cstddef>
#include <utility>
#include <vector>

namespace iobt::adapt {

/// A population of parameterized controllers that adapt by imitating
/// better-performing neighbors (E10, controller diversity). Each agent
/// holds a parameter vector; after each evaluation round an agent adopts
/// (with learning rate eta) the parameters of its best-performing
/// neighbor if that neighbor outperformed it.
class ImitationPopulation {
 public:
  /// `params[i]` is agent i's parameter vector (all same length).
  explicit ImitationPopulation(std::vector<std::vector<double>> params)
      : params_(std::move(params)) {}

  std::size_t size() const { return params_.size(); }
  const std::vector<double>& params(std::size_t i) const { return params_[i]; }
  std::vector<double>& mutable_params(std::size_t i) { return params_[i]; }

  /// One imitation round. `performance[i]` is agent i's score this round;
  /// `neighbors[i]` lists who i can observe. eta in (0, 1] blends toward
  /// the imitated parameters.
  void imitate(const std::vector<double>& performance,
               const std::vector<std::vector<std::size_t>>& neighbors, double eta) {
    std::vector<std::vector<double>> next = params_;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      std::size_t best = i;
      for (std::size_t n : neighbors[i]) {
        if (performance[n] > performance[best]) best = n;
      }
      if (best == i) continue;
      for (std::size_t k = 0; k < params_[i].size(); ++k) {
        next[i][k] = (1.0 - eta) * params_[i][k] + eta * params_[best][k];
      }
    }
    params_ = std::move(next);
  }

  /// Population diversity: mean per-dimension variance of parameters.
  double diversity() const {
    if (params_.empty() || params_[0].empty()) return 0.0;
    const std::size_t dims = params_[0].size();
    double total_var = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      double mean = 0.0;
      for (const auto& p : params_) mean += p[k];
      mean /= static_cast<double>(params_.size());
      double var = 0.0;
      for (const auto& p : params_) var += (p[k] - mean) * (p[k] - mean);
      total_var += var / static_cast<double>(params_.size());
    }
    return total_var / static_cast<double>(dims);
  }

 private:
  std::vector<std::vector<double>> params_;
};

}  // namespace iobt::adapt
