#pragma once
// Synthetic datasets for the distributed-learning experiments: binary
// classification with controllable difficulty, plus non-IID sharding
// across heterogeneous nodes (the paper's wearable-to-cluster spread,
// §V-B).

#include <utility>
#include <vector>

#include "learn/linalg.h"
#include "sim/rng.h"

namespace iobt::learn {

struct Example {
  Vec x;
  double y = 0.0;  // label in {0, 1}
};

using Dataset = std::vector<Example>;

/// Two Gaussian blobs separated along a random direction; label noise
/// flips a fraction of labels. Linearly separable up to the noise.
Dataset make_blobs(std::size_t n, std::size_t dim, double separation,
                   double label_noise, sim::Rng& rng);

/// Harder nonlinear task: label = 1 iff the point lies inside an annulus
/// (tests the MLP path).
Dataset make_rings(std::size_t n, std::size_t dim, sim::Rng& rng);

/// Splits a dataset into `shards` parts. `label_skew` in [0,1]: 0 = IID;
/// 1 = each shard sees almost exclusively one label (the pathological
/// non-IID case for naive averaging).
std::vector<Dataset> shard(const Dataset& data, std::size_t shards, double label_skew,
                           sim::Rng& rng);

/// Fraction of correct predictions of `predict` over `data`.
template <typename PredictFn>
double accuracy(const Dataset& data, PredictFn&& predict) {
  if (data.empty()) return 0.0;
  std::size_t ok = 0;
  for (const Example& e : data) {
    if ((predict(e.x) > 0.5) == (e.y > 0.5)) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(data.size());
}

}  // namespace iobt::learn
