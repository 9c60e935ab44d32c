#include "sim/metrics.h"

#include <cstring>
#include <stdexcept>

#include "sim/hash.h"
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

void hash_double(std::uint64_t& h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  hash_combine(h, bits);
}

}  // namespace

void Summary::hash_into(std::uint64_t& h) const {
  hash_combine(h, count_);
  hash_double(h, mean_);
  hash_double(h, m2_);
  hash_double(h, min_);
  hash_double(h, max_);
  hash_combine(h, reservoir_.size());
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
  hash_combine(h, counters_.size());
  for (const auto& [key, value] : counters_) {
    hash_combine(h, fnv1a(key));
    hash_double(h, value);
  }
  hash_combine(h, gauges_.size());
  for (const auto& [key, value] : gauges_) {
    hash_combine(h, fnv1a(key));
    hash_double(h, value);
  }
  hash_combine(h, summaries_.size());
  for (const auto& [key, summary] : summaries_) {
    hash_combine(h, fnv1a(key));
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

/// Save-safe key: non-empty, free of whitespace, ';' and '\\'.
bool key_ok(std::string_view key) {
  return !key.empty() && key.find_first_of(" \t\r\n;\\") == std::string_view::npos;
}

void check_key(const std::string& key) {
  if (!key_ok(key)) {
    throw std::logic_error(
        "MetricsRegistry::save: key '" + key +
        "' is not save-safe (empty or contains whitespace/';'/'\\')");
  }
}

/// Reads one section key: save-safe and strictly after `prev`, the
/// order save() writes a std::map in — so an accepted image re-encodes to
/// the same bytes.
bool read_key(WireReader& r, const std::string* prev, std::string& out) {
  const std::string_view key = r.bytes_view();
  if (!r.ok() || !key_ok(key) || (prev != nullptr && key <= *prev)) return false;
  out = key;
  return true;
}

void save_doubles(WireWriter& w, const std::map<std::string, double>& section) {
  w.u64(section.size());
  for (const auto& [key, value] : section) {
    check_key(key);
    w.bytes(key).f64(value);
  }
}

bool restore_doubles(WireReader& r, std::map<std::string, double>& section) {
  section.clear();
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining()) return false;
  const std::string* prev = nullptr;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    if (!read_key(r, prev, key)) return false;
    const auto it = section.emplace_hint(section.end(), std::move(key), r.f64());
    prev = &it->first;
  }
  return r.ok();
}

}  // namespace

void MetricsRegistry::save(WireWriter& w) const {
  save_doubles(w, counters_);
  save_doubles(w, gauges_);
  w.u64(summaries_.size());
  for (const auto& [key, summary] : summaries_) {
    check_key(key);
    const Summary::State st = summary.state();
    w.bytes(key).u64(st.count).f64(st.mean).f64(st.m2).f64(st.min).f64(st.max);
    w.u64(st.seen_for_reservoir).u64(st.reservoir.size());
    for (double x : st.reservoir) w.f64(x);
  }
}

bool MetricsRegistry::restore(WireReader& r) {
  if (!restore_doubles(r, counters_) || !restore_doubles(r, gauges_)) return false;
  summaries_.clear();
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining()) return false;
  const std::string* prev = nullptr;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    if (!read_key(r, prev, key)) return false;
    Summary::State st;
    st.count = r.u64();
    st.mean = r.f64();
    st.m2 = r.f64();
    st.min = r.f64();
    st.max = r.f64();
    st.seen_for_reservoir = r.u64();
    // An honest summary holds min(seen, kReservoirCap) samples, which also
    // keeps a corrupt length from driving a giant allocation, and its
    // counter is below kMaxSeen: a wrapped counter would make the next
    // offer compute % 0.
    const std::uint64_t reservoir_size = r.u64();
    if (!r.ok() || st.seen_for_reservoir >= Summary::kMaxSeen ||
        reservoir_size !=
            std::min<std::uint64_t>(st.seen_for_reservoir, Summary::kReservoirCap) ||
        reservoir_size > r.remaining()) {
      return false;
    }
    st.reservoir.resize(static_cast<std::size_t>(reservoir_size));
    for (double& x : st.reservoir) x = r.f64();
    if (!r.ok()) return false;
    const auto it = summaries_.emplace_hint(summaries_.end(), std::move(key),
                                            Summary::from_state(std::move(st)));
    prev = &it->first;
  }
  return true;
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
