#pragma once
// Parallel replication harness.
//
// The kernel is deliberately single-threaded-deterministic (DESIGN.md §S1),
// so the parallelism axis for experiments is ACROSS replications, not within
// one simulation: every seed sweep is embarrassingly parallel. ParallelRunner
// executes N independent replications on a fixed-size worker pool — each
// replication is a closure receiving a ReplicationContext (seed, index, a
// replication-local MetricsRegistry) and must construct its own Simulator /
// Rng from the seed, sharing nothing with its siblings.
//
// Determinism guarantee: results are aggregated in SEED ORDER (the order of
// the input seed vector), never in completion order, so the aggregated
// output — payloads, merged metrics, digests — is bit-identical regardless
// of worker count. 1 worker ≡ 8 workers ≡ the serial inline path
// (workers == 0). A replication that throws is captured as a failure record
// carrying its (seed, index) and the error; the pool keeps draining the
// remaining replications. Admission, tracing and profiling are the
// caller's business: the runner only fans out and aggregates.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/snapshot_store.h"

namespace iobt::sim {

/// Per-replication view handed to the body closure. The body records
/// experiment metrics into `metrics`, which is snapshotted into the result.
struct ReplicationContext {
  std::uint64_t seed = 0;
  std::size_t index = 0;
  MetricsRegistry metrics;

  Rng make_rng() const { return Rng(seed); }
};

/// Everything one replication produced: the user payload plus the captured
/// metrics snapshot and wall time. On failure `ok` is false, `payload` is
/// default-constructed, and `error` says what was thrown.
template <typename T>
struct ReplicationResult {
  std::uint64_t seed = 0;
  std::size_t index = 0;
  bool ok = false;
  double wall_ms = 0.0;
  T payload{};
  MetricsRegistry metrics;
  std::string error;
};

/// Aggregate of one run(): replication results in seed order, the seed-order
/// merge of every replication's metrics, and failure count.
template <typename T>
struct RunOutcome {
  std::vector<ReplicationResult<T>> replications;  // input seed order
  MetricsRegistry merged;                          // seed-order merge
  std::size_t failures = 0;
  std::size_t workers = 0;  // pool size actually used (0 = inline serial)
  double wall_ms = 0.0;     // whole-batch wall time
  /// Replications replayed from the store instead of being re-run
  /// (run_resumable only; plain run() leaves it 0).
  std::size_t resumed = 0;
  /// Successful replications the store did not accept (disk full,
  /// permissions, ...). Their results are still in `replications` — the
  /// campaign's answers are correct — but they are not durable: a resume
  /// will re-run them. Nonzero means the store directory is impaired.
  std::size_t store_write_failures = 0;

  /// Projects one double per successful replication, in seed order.
  std::vector<double> values(const std::function<double(const T&)>& f) const {
    std::vector<double> xs;
    xs.reserve(replications.size());
    for (const auto& r : replications) {
      if (r.ok) xs.push_back(f(r.payload));
    }
    return xs;
  }
  /// Mean / stddev / min / max of values(f): the shape every bench table
  /// reports instead of a one-seed artifact.
  Summary stats(const std::function<double(const T&)>& f) const {
    Summary s;
    for (double x : values(f)) s.add(x);
    return s;
  }
};

/// Store key of replication `index` of seed `seed` under run_resumable:
/// StableHash("runner.replication") over both fields, so a reordered or
/// extended seed list never aliases.
std::uint64_t replication_key(std::uint64_t seed, std::size_t index);

/// One finished replication as run_resumable stores it: the sim/wire.h
/// tokens f64(wall_ms), bytes(payload), then the MetricsRegistry::save
/// image — bit-exact, so a replayed replication digests like the original.
std::string encode_replication(double wall_ms, std::string_view payload,
                               const MetricsRegistry& metrics);
/// Inverse of encode_replication: false unless `record` decodes to its last
/// byte. On success `payload` points into `record`.
bool decode_replication(std::string_view record, double& wall_ms,
                        std::string_view& payload, MetricsRegistry& metrics);

class ParallelRunner {
 public:
  /// Pool size. 0 runs every replication inline on the calling thread (true
  /// serial — the reference for the determinism guarantee); k >= 1 spawns
  /// min(k, replications) workers pulling indices from a shared cursor.
  explicit ParallelRunner(std::size_t workers) : workers_(workers) {}

  /// `{base, base+1, ..., base+n-1}` — the standard bench seed sweep.
  static std::vector<std::uint64_t> seed_range(std::uint64_t base,
                                               std::size_t n);

  /// Runs `body` once per seed and aggregates in seed order. The body MUST
  /// derive all randomness and simulation state from its context (no shared
  /// mutable state), which is what makes worker count unobservable.
  template <typename T>
  RunOutcome<T> run(const std::vector<std::uint64_t>& seeds,
                    const std::function<T(ReplicationContext&)>& body) const {
    return execute<T>(seeds, body, nullptr, {}, {});
  }

  /// run() with campaign resume: a replication whose record `store` holds
  /// (under replication_key(seed, index)) is replayed from its stored
  /// payload + metrics instead of being re-run; the rest execute normally
  /// and each success is put to the store as it completes. `encode`/`decode`
  /// round-trip the payload T (any bytes: the record length-prefixes it).
  /// Because the metrics image is bit-exact and aggregation stays in seed
  /// order, an interrupted-then-resumed campaign produces a merged registry
  /// digest-identical to an uninterrupted one. Keys carry only (seed,
  /// index), so each campaign needs its own store directory.
  template <typename T>
  RunOutcome<T> run_resumable(
      const std::vector<std::uint64_t>& seeds,
      const std::function<T(ReplicationContext&)>& body,
      SnapshotStore& store,
      const std::function<std::string(const T&)>& encode,
      const std::function<T(std::string_view)>& decode) const {
    return execute<T>(seeds, body, &store, encode, decode);
  }

 private:
  /// The one fan-out loop behind run() and run_resumable(). `store` is
  /// null for a plain run; `encode`/`decode` are then never called.
  template <typename T>
  RunOutcome<T> execute(const std::vector<std::uint64_t>& seeds,
                        const std::function<T(ReplicationContext&)>& body,
                        SnapshotStore* store,
                        const std::function<std::string(const T&)>& encode,
                        const std::function<T(std::string_view)>& decode) const {
    RunOutcome<T> out;
    const std::size_t n = seeds.size();
    out.replications.resize(n);
    const auto batch_start = std::chrono::steady_clock::now();

    // Replay completed replications from the store. Records are read back
    // from disk, so one the store rejects, one that does not decode to its
    // last byte, and one whose payload the caller cannot decode (version
    // skew, foreign content) are re-run, never trusted and never fatal.
    std::vector<char> done(n, 0);
    for (std::size_t i = 0; store && i < n; ++i) {
      std::string record;
      double wall_ms = 0.0;
      std::string_view payload;
      MetricsRegistry metrics;
      if (store->get(replication_key(seeds[i], i), record) !=
              SnapshotStore::GetStatus::kHit ||
          !decode_replication(record, wall_ms, payload, metrics)) {
        continue;
      }
      ReplicationResult<T>& r = out.replications[i];
      try {
        r.payload = decode(payload);
      } catch (...) {
        continue;
      }
      r.seed = seeds[i];
      r.index = i;
      r.ok = true;
      r.wall_ms = wall_ms;
      r.metrics = std::move(metrics);
      done[i] = 1;
      ++out.resumed;
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> write_failures{0};
    auto drain = [&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        if (done[i]) continue;
        run_one(seeds[i], i, body, out.replications[i]);
        const ReplicationResult<T>& r = out.replications[i];
        // Failures are not stored: a resume retries them.
        if (!store || !r.ok) continue;
        // A record the store refuses, or that cannot be encoded (a throwing
        // `encode`, a metrics key save() rejects), leaves the result good
        // but not durable: count it rather than fail the replication or let
        // an exception tear down a worker thread (terminating the process).
        bool stored = false;
        try {
          stored = store->put(
              replication_key(r.seed, r.index),
              encode_replication(r.wall_ms, encode(r.payload), r.metrics));
        } catch (const std::exception&) {
        }
        if (!stored) write_failures.fetch_add(1, std::memory_order_relaxed);
      }
    };

    const std::size_t pool =
        workers_ == 0 ? 0 : std::min(workers_, std::max<std::size_t>(n, 1));
    out.workers = pool;
    if (pool == 0) {
      drain();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(pool);
      for (std::size_t w = 0; w < pool; ++w) threads.emplace_back(drain);
      for (auto& t : threads) t.join();
    }

    // Aggregation strictly in seed order — the determinism guarantee.
    out.store_write_failures = write_failures.load(std::memory_order_relaxed);
    for (const auto& r : out.replications) {
      if (!r.ok) ++out.failures;
      out.merged.merge_from(r.metrics);
    }
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - batch_start)
                      .count();
    return out;
  }

  template <typename T>
  void run_one(std::uint64_t seed, std::size_t index,
               const std::function<T(ReplicationContext&)>& body,
               ReplicationResult<T>& slot) const {
    slot.seed = seed;
    slot.index = index;
    ReplicationContext ctx;
    ctx.seed = seed;
    ctx.index = index;
    const auto start = std::chrono::steady_clock::now();
    try {
      slot.payload = body(ctx);
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.ok = false;
      slot.error = e.what();
    } catch (...) {
      slot.ok = false;
      slot.error = "non-std exception";
    }
    slot.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    slot.metrics = std::move(ctx.metrics);
  }

  std::size_t workers_;
};

}  // namespace iobt::sim
