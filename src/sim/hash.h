#pragma once
// Canonical stable hashing for scenario keys.
//
// The campaign service (src/serve/) keys its checkpoint cache by a
// canonical hash of "everything that determines the simulation prefix":
// scenario spec fields, seed, branch point. Two queries whose prefixes are
// semantically equal MUST collide (that is the cache hit), and the key must
// be stable across process runs and builds (a warm cache persisted or
// compared across restarts keys the same scenarios the same way). Neither
// property holds for std::hash — it is unspecified per platform and, for
// strings, may be seeded per process — so this hasher is built on the same
// explicit-constant primitives the deterministic RNG uses (FNV-1a /
// SplitMix64 finalization, sim/rng.h).
//
// Usage: stream typed fields in a FIXED, documented order; the order is
// part of the key's definition. Doubles hash by bit pattern with -0.0
// canonicalized to +0.0 and every NaN to one quiet NaN, so semantically
// equal specs built through different arithmetic hash equal. Strings are
// length-prefixed so field boundaries cannot alias ("ab","c" != "a","bc").
//
// hash_combine is the other, cheaper fold: the order-dependent mix every
// content digest uses (MetricsRegistry::digest, the dissemination and
// scenario outcome digests). Digests are pinned as goldens, so its
// arithmetic is part of their definition and must never change.

#include <cstdint>
#include <cstring>
#include <string_view>

#include "sim/rng.h"

namespace iobt::sim {

/// Folds `v` into the running digest `h` (the boost::hash_combine mix,
/// widened to 64 bits).
constexpr void hash_combine(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

class StableHash {
 public:
  /// `domain` separates key families ("serve.prefix" vs "serve.query"):
  /// identical field streams under different domains never collide by
  /// construction.
  explicit StableHash(std::string_view domain) : h_(fnv1a(domain)) {}

  StableHash& mix_u64(std::uint64_t v) {
    // SplitMix64 finalization over (state ^ value): full avalanche per
    // field, so short field streams still spread over all 64 bits.
    std::uint64_t z = h_ ^ v;
    h_ = splitmix64(z);
    return *this;
  }
  StableHash& mix_i64(std::int64_t v) {
    return mix_u64(static_cast<std::uint64_t>(v));
  }
  StableHash& mix_size(std::size_t v) {
    return mix_u64(static_cast<std::uint64_t>(v));
  }
  StableHash& mix_bool(bool v) { return mix_u64(v ? 1 : 0); }

  /// Canonical double: bit pattern, with -0.0 folded into +0.0 and every
  /// NaN folded into one representative so payload bits cannot split keys.
  StableHash& mix_double(double v) {
    if (v == 0.0) v = 0.0;  // -0.0 == 0.0 compares true; store +0.0 bits
    std::uint64_t bits;
    if (v != v) {
      bits = 0x7ff8000000000000ULL;  // canonical quiet NaN
    } else {
      std::memcpy(&bits, &v, sizeof bits);
    }
    return mix_u64(bits);
  }

  /// Length-prefixed so adjacent strings cannot alias across boundaries.
  StableHash& mix_str(std::string_view s) {
    mix_size(s.size());
    return mix_u64(fnv1a(s));
  }

  template <typename E>
  StableHash& mix_enum(E e) {
    return mix_i64(static_cast<std::int64_t>(e));
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace iobt::sim
