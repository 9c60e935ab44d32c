#include "sim/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "sim/rng.h"
#include "sim/wire.h"

namespace iobt::sim {

void Summary::add(double x) {
  ++count_;
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // Welford's online mean/variance.
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);

  offer_to_reservoir(x);
}

// Reservoir sampling for quantiles. The replacement index comes from a
// deterministic SplitMix64 stream keyed only by how many samples we have
// seen, so Summary stays reproducible without threading an Rng through.
void Summary::offer_to_reservoir(double x) {
  ++seen_for_reservoir_;
  if (reservoir_.size() < kReservoirCap) {
    reservoir_.push_back(x);
  } else {
    std::uint64_t state = 0x5bf0d3a9c2e1f764ULL ^ seen_for_reservoir_;
    const std::uint64_t r = splitmix64(state) % seen_for_reservoir_;
    if (r < kReservoirCap) reservoir_[static_cast<std::size_t>(r)] = x;
  }
}

void Summary::merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  // Chan et al. parallel combination of (count, mean, m2).
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * (nb / (na + nb));
  m2_ += other.m2_ + delta * delta * (na * nb / (na + nb));
  count_ += other.count_;
  // Replay the other reservoir through the deterministic sampler, so the
  // merged reservoir depends only on merge order. (Quantiles of a merged
  // summary are an approximation: the other side contributes at most its
  // retained reservoir, not its full stream.)
  for (double x : other.reservoir_) offer_to_reservoir(x);
}

namespace {

void hash_u64(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void hash_double(std::uint64_t& h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  hash_u64(h, bits);
}

}  // namespace

void Summary::hash_into(std::uint64_t& h) const {
  hash_u64(h, count_);
  hash_double(h, mean_);
  hash_double(h, m2_);
  hash_double(h, min_);
  hash_double(h, max_);
  hash_u64(h, reservoir_.size());
  for (double x : reservoir_) hash_double(h, x);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [key, value] : other.counters_) counters_[key] += value;
  for (const auto& [key, value] : other.gauges_) gauges_[key] = value;
  for (const auto& [key, summary] : other.summaries_) {
    summaries_[key].merge(summary);
  }
}

std::uint64_t MetricsRegistry::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  hash_u64(h, counters_.size());
  for (const auto& [key, value] : counters_) {
    hash_u64(h, fnv1a(key));
    hash_double(h, value);
  }
  hash_u64(h, gauges_.size());
  for (const auto& [key, value] : gauges_) {
    hash_u64(h, fnv1a(key));
    hash_double(h, value);
  }
  hash_u64(h, summaries_.size());
  for (const auto& [key, summary] : summaries_) {
    hash_u64(h, fnv1a(key));
    summary.hash_into(h);
  }
  return h;
}

Summary::State Summary::state() const {
  return State{count_, mean_, m2_, min_, max_, seen_for_reservoir_, reservoir_};
}

Summary Summary::from_state(State s) {
  Summary out;
  out.count_ = s.count;
  out.mean_ = s.mean;
  out.m2_ = s.m2;
  out.min_ = s.min;
  out.max_ = s.max;
  out.seen_for_reservoir_ = s.seen_for_reservoir;
  out.reservoir_ = std::move(s.reservoir);
  return out;
}

namespace {

// Doubles travel as the hex of their raw bit pattern — the only encoding
// that survives a text round trip bit-for-bit (printf %.17g does not
// preserve NaN payloads or distinguish every -0.0 path).
void append_double_bits(std::string& out, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  char buf[20];
  std::snprintf(buf, sizeof buf, " %016" PRIx64, bits);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += ' ';
  out += std::to_string(v);
}

bool read_u64(std::istream& in, std::uint64_t& v) {
  std::string tok;
  return (in >> tok) && parse_u64_token(tok, v);
}

bool read_double_bits(std::istream& in, double& x) {
  std::string tok;
  return (in >> tok) && parse_f64_token(tok, x);
}

void check_key(const std::string& key) {
  if (key.empty() ||
      key.find_first_of(" \t\r\n;\\") != std::string::npos) {
    throw std::logic_error(
        "MetricsRegistry::serialize: key '" + key +
        "' is not journal-safe (empty or contains whitespace/';'/'\\')");
  }
}

}  // namespace

std::string MetricsRegistry::serialize() const {
  std::string out = "m1";
  append_u64(out, counters_.size());
  for (const auto& [key, value] : counters_) {
    check_key(key);
    out += ' ';
    out += key;
    append_double_bits(out, value);
  }
  append_u64(out, gauges_.size());
  for (const auto& [key, value] : gauges_) {
    check_key(key);
    out += ' ';
    out += key;
    append_double_bits(out, value);
  }
  append_u64(out, summaries_.size());
  for (const auto& [key, summary] : summaries_) {
    check_key(key);
    out += ' ';
    out += key;
    const Summary::State st = summary.state();
    append_u64(out, st.count);
    append_double_bits(out, st.mean);
    append_double_bits(out, st.m2);
    append_double_bits(out, st.min);
    append_double_bits(out, st.max);
    append_u64(out, st.seen_for_reservoir);
    append_u64(out, st.reservoir.size());
    for (double x : st.reservoir) append_double_bits(out, x);
  }
  return out;
}

std::optional<MetricsRegistry> MetricsRegistry::deserialize(
    std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string tok;
  if (!(in >> tok) || tok != "m1") return std::nullopt;

  MetricsRegistry out;
  std::uint64_t n = 0;
  if (!read_u64(in, n)) return std::nullopt;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    double value = 0.0;
    if (!(in >> key) || !read_double_bits(in, value)) return std::nullopt;
    out.counters_[key] = value;
  }
  if (!read_u64(in, n)) return std::nullopt;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    double value = 0.0;
    if (!(in >> key) || !read_double_bits(in, value)) return std::nullopt;
    out.gauges_[key] = value;
  }
  if (!read_u64(in, n)) return std::nullopt;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    Summary::State st;
    std::uint64_t reservoir_size = 0;
    if (!(in >> key) || !read_u64(in, st.count) ||
        !read_double_bits(in, st.mean) || !read_double_bits(in, st.m2) ||
        !read_double_bits(in, st.min) || !read_double_bits(in, st.max) ||
        !read_u64(in, st.seen_for_reservoir) ||
        !read_u64(in, reservoir_size)) {
      return std::nullopt;
    }
    // A corrupt length must not drive a giant allocation; real reservoirs
    // are bounded by kReservoirCap.
    if (reservoir_size > Summary::kReservoirCap) return std::nullopt;
    st.reservoir.reserve(reservoir_size);
    for (std::uint64_t r = 0; r < reservoir_size; ++r) {
      double x = 0.0;
      if (!read_double_bits(in, x)) return std::nullopt;
      st.reservoir.push_back(x);
    }
    out.summaries_[key] = Summary::from_state(std::move(st));
  }
  // Trailing garbage means the line was not produced by serialize().
  if (in >> tok) return std::nullopt;
  return out;
}

double Summary::quantile(double q) const {
  if (reservoir_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace iobt::sim
