#include "learn/data.h"

#include <algorithm>
#include <cmath>

namespace iobt::learn {

Dataset make_blobs(std::size_t n, std::size_t dim, double separation,
                   double label_noise, sim::Rng& rng) {
  // Fixed diagonal separation direction: every make_blobs call with the
  // same dim samples the SAME distribution, so independently generated
  // train and test sets are exchangeable (a randomized direction would
  // silently make them different tasks).
  Vec dir(dim, 1.0 / std::sqrt(static_cast<double>(dim)));

  Dataset out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.bernoulli(0.5);
    Example e;
    e.x.resize(dim);
    const double offset = positive ? separation / 2 : -separation / 2;
    for (std::size_t k = 0; k < dim; ++k) {
      e.x[k] = offset * dir[k] + rng.normal();
    }
    e.y = positive ? 1.0 : 0.0;
    if (rng.bernoulli(label_noise)) e.y = 1.0 - e.y;
    out.push_back(std::move(e));
  }
  return out;
}

Dataset make_rings(std::size_t n, std::size_t dim, sim::Rng& rng) {
  Dataset out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Example e;
    e.x.resize(dim);
    for (double& v : e.x) v = rng.normal();
    // Label by the norm of the first two coordinates: inside r<1 or
    // outside r>2 -> class 0; the annulus 1<=r<=2 -> class 1.
    const double r = std::hypot(e.x[0], dim > 1 ? e.x[1] : 0.0);
    e.y = (r >= 1.0 && r <= 2.0) ? 1.0 : 0.0;
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<Dataset> shard(const Dataset& data, std::size_t shards, double label_skew,
                           sim::Rng& rng) {
  std::vector<Dataset> out(shards);
  if (shards == 0) return out;
  for (const Example& e : data) {
    std::size_t target;
    if (rng.bernoulli(label_skew)) {
      // Skewed placement: label determines the shard block — the FIRST
      // half of the shards collects label 0, the second half label 1.
      // Contiguous blocks model spatially clustered data and are the hard
      // case for local gossip (information must cross the block boundary);
      // an alternating assignment would hand every ring neighborhood both
      // labels and hide the effect.
      const bool one = e.y > 0.5;
      const std::size_t half = shards / 2;
      std::size_t lo = one ? half : 0;
      std::size_t hi = one ? shards - 1 : (half == 0 ? 0 : half - 1);
      if (lo > hi) {  // degenerate single-shard case
        lo = 0;
        hi = shards - 1;
      }
      target = lo + static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(hi - lo)));
    } else {
      target = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(shards) - 1));
    }
    out[target].push_back(e);
  }
  return out;
}

}  // namespace iobt::learn
