#pragma once
// Metrics collection for experiments.
//
// A MetricsRegistry owns named counters, gauges, and distribution summaries
// that simulation components update as they run; benchmark harnesses read
// them out at the end to print the experiment rows. Everything is plain
// in-memory accumulation — no I/O on the hot path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace iobt::sim {

class WireReader;  // sim/wire.h
class WireWriter;

/// Online summary of a stream of samples: count/mean/variance via Welford,
/// min/max, and exact quantiles from a bounded reservoir.
class Summary {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Quantile in [0,1] computed from the reservoir (exact if fewer samples
  /// than the reservoir capacity were added).
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double p99() const { return quantile(0.99); }

  /// Folds `other` into this summary: counts add, mean/variance combine by
  /// the parallel (Chan et al.) update, min/max take the extremes, and
  /// `other`'s reservoir is replayed through the deterministic sampler. The
  /// result depends only on merge order — never on wall-clock or thread
  /// interleaving — which is what lets ParallelRunner aggregate replications
  /// in seed order and stay bit-identical across worker counts.
  void merge(const Summary& other);

  /// Mixes this summary's full state (including the reservoir) into `h`.
  void hash_into(std::uint64_t& h) const;

  /// Full internal state, exposed for bit-exact round-trips (checkpoint
  /// snapshots, stored replication records). A summary rebuilt via from_state()
  /// digests identically AND continues the deterministic reservoir stream
  /// exactly where the original left off.
  struct State {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t seen_for_reservoir = 0;
    std::vector<double> reservoir;
  };
  State state() const;
  static Summary from_state(State s);

  /// Reservoir capacity — also the upper bound deserializers accept.
  static constexpr std::size_t kReservoirCap = 4096;
  /// Deserializers reject a sample counter (State::seen_for_reservoir) at
  /// or past this: no run reaches it, and it leaves 2^63 offers before the
  /// counter could wrap.
  static constexpr std::uint64_t kMaxSeen = std::uint64_t{1} << 63;

 private:
  void offer_to_reservoir(double x);

  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> reservoir_;
  std::uint64_t seen_for_reservoir_ = 0;  // for reservoir sampling beyond cap
};

/// Named metrics, keyed by string. Keys are created on first touch.
class MetricsRegistry {
 public:
  /// Adds `delta` (default 1) to a counter.
  void count(const std::string& key, double delta = 1.0) { counters_[key] += delta; }
  /// Sets a gauge to its latest value.
  void gauge(const std::string& key, double value) { gauges_[key] = value; }
  /// Records one sample into a distribution summary.
  void observe(const std::string& key, double sample) { summaries_[key].add(sample); }

  /// Stable pointer to a counter / summary, for hot paths that would
  /// otherwise pay a string-keyed map lookup per event (std::map nodes
  /// never move, so the pointer survives later insertions). Updating
  /// through a handle is observably identical to count()/observe() on the
  /// same key — digests and merges see the same state.
  double* counter_handle(const std::string& key) { return &counters_[key]; }
  Summary* summary_handle(const std::string& key) { return &summaries_[key]; }
  /// Records a duration sample, in seconds.
  void observe(const std::string& key, Duration d) { observe(key, d.to_seconds()); }

  double counter(const std::string& key) const {
    auto it = counters_.find(key);
    return it == counters_.end() ? 0.0 : it->second;
  }
  double gauge_value(const std::string& key) const {
    auto it = gauges_.find(key);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  const Summary* summary(const std::string& key) const {
    auto it = summaries_.find(key);
    return it == summaries_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Summary>& summaries() const { return summaries_; }

  void clear() {
    counters_.clear();
    gauges_.clear();
    summaries_.clear();
  }

  /// Folds `other` into this registry: counters add, gauges take `other`'s
  /// latest value (last merge wins), summaries merge. Used by ParallelRunner
  /// to aggregate per-replication snapshots in seed order.
  void merge_from(const MetricsRegistry& other);

  /// Order-insensitive-to-nothing content digest: a stable 64-bit hash over
  /// every key and the exact bit patterns of every value (including summary
  /// reservoirs). Two registries digest equal iff their observable state is
  /// bit-identical — the check the determinism-under-parallelism tests use.
  std::uint64_t digest() const;

  /// Writes the full registry as sim/wire.h tokens, bit-exact: doubles
  /// travel as the hex of their bit pattern (NaN payloads, -0.0 and
  /// infinities survive), so restore(save()) digests identically. Network
  /// checkpoints embed this image, and so does every replication record
  /// ParallelRunner::run_resumable stores. Keys must be non-empty and free
  /// of whitespace, ';' and '\\' (all repo keys are dotted identifiers);
  /// save throws std::logic_error otherwise.
  void save(WireWriter& w) const;
  /// Reads a save() image over this registry. False on malformed input —
  /// a bad token, keys out of order or not save-safe, a summary whose
  /// reservoir does not hold min(seen, kReservoirCap) samples or whose
  /// sample counter is at or past Summary::kMaxSeen — leaving the registry
  /// unspecified. Reads exactly one image:
  /// a caller holding a standalone image also checks WireReader::at_end.
  bool restore(WireReader& r);
 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace iobt::sim
