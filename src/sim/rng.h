#pragma once
// Deterministic pseudo-random number generation for the simulator.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
// rather than using std::mt19937, for two reasons:
//   1. std distributions are not guaranteed to produce identical streams
//      across standard-library implementations; our own distributions are.
//   2. Substreams: every simulated entity can derive an independent child
//      RNG from a (seed, stream-id) pair, so adding an entity never
//      perturbs the random stream of existing entities. This keeps
//      experiments comparable across configuration sweeps.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace iobt::sim {

/// SplitMix64: used for seeding and for hashing stream ids.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stable 64-bit hash of a string (FNV-1a), for deriving stream ids from
/// entity names.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// xoshiro256** with explicit-seed determinism and cheap substreams.
class Rng {
 public:
  /// Seeds the generator. Identical seeds produce identical streams on all
  /// platforms.
  explicit Rng(std::uint64_t seed = 0x1234abcdULL);

  /// Derives an independent child generator. Children with distinct ids
  /// have statistically independent streams; the parent is not advanced.
  Rng child(std::uint64_t stream_id) const;
  Rng child(std::string_view name) const { return child(fnv1a(name)); }

  /// Raw 64 uniform bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p);
  /// Standard normal via Box-Muller (cached second value).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  /// Exponential with given rate (lambda). Mean = 1/rate.
  double exponential(double rate);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) uniformly (reservoir style).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// The complete generator state as plain words — the xoshiro lanes plus
  /// the Box-Muller cache. Checkpoint persistence (sim/wire.h) round-trips
  /// it bit-exactly; from_state(state()) continues the stream as if the
  /// generator had never been serialized.
  struct State {
    std::array<std::uint64_t, 4> s{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State state() const { return State{s_, cached_normal_, has_cached_normal_}; }
  static Rng from_state(const State& st) {
    Rng r;
    r.s_ = st.s;
    r.cached_normal_ = st.cached_normal;
    r.has_cached_normal_ = st.has_cached_normal;
    return r;
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace iobt::sim
