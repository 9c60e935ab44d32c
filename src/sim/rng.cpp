#include "sim/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace iobt::sim {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed all 256 bits of state through SplitMix64, as recommended by the
  // xoshiro authors; guarantees the all-zero state is unreachable.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng Rng::child(std::uint64_t stream_id) const {
  // Mix the child's stream id into a digest of the parent state. The
  // parent is copied, not advanced, so sibling order does not matter.
  std::uint64_t sm = s_[0] ^ rotl(s_[1], 17) ^ rotl(s_[2], 31) ^ s_[3];
  sm ^= 0x9e3779b97f4a7c15ULL + stream_id;
  (void)splitmix64(sm);  // one extra round of diffusion
  return Rng(splitmix64(sm));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire-style rejection to remove modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto l = static_cast<std::uint64_t>(m);
  if (l < span) {
    const std::uint64_t t = (0 - span) % span;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  double u = uniform();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: no positive weight");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  // Floyd's algorithm: k distinct values, O(k) expected work.
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(j)));
    bool seen = false;
    for (std::size_t c : chosen) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    chosen.push_back(seen ? j : t);
  }
  return chosen;
}

}  // namespace iobt::sim
