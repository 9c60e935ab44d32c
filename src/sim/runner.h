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
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/metrics.h"
#include "sim/rng.h"

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
  /// Replications satisfied from a campaign journal instead of being
  /// re-run (run_resumable only; plain run() leaves it 0).
  std::size_t resumed = 0;
  /// Successful replications whose journal append FAILED (disk full,
  /// permissions, ...). Their results are still in `replications` — the
  /// campaign's answers are correct — but they are not durable: a resume
  /// will re-run them. Nonzero means the journal file is impaired.
  std::size_t journal_write_failures = 0;

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

/// One completed replication as persisted in a CampaignJournal.
struct JournalEntry {
  std::uint64_t seed = 0;
  std::size_t index = 0;
  double wall_ms = 0.0;
  /// User payload, encoded by the caller's `encode` closure.
  std::string payload;
  /// MetricsRegistry::serialize() image — bit-exact across the round trip.
  std::string metrics;
};

/// Append-only journal of completed replications, backing campaign resume:
/// results stream to disk as they finish, and a campaign restarted after an
/// interruption (crash at replication 900/1000, preempted job, ...) replays
/// the journaled results instead of re-simulating them. One escaped text
/// line per entry; loading skips malformed lines (a line truncated by a
/// crash mid-write costs exactly that one replication). A truncated tail
/// also lacks its terminating newline, so the first append after reopening
/// writes a separator first — otherwise the new entry would be glued onto
/// the partial line (whose escaped '\\t' separators make the merged line
/// look almost-parseable) and both would be lost on the next load. append()
/// is thread-safe and flushes before returning, so the journal is as
/// current as the last completed replication at any kill point.
class CampaignJournal {
 public:
  /// Opens (and loads) `path`; the file is created on first append.
  explicit CampaignJournal(std::string path);

  const std::string& path() const { return path_; }
  const std::vector<JournalEntry>& entries() const { return entries_; }

  /// The journaled entry for (seed, index), or nullptr. Matching uses both
  /// fields so a reordered or extended seed list never aliases.
  const JournalEntry* find(std::uint64_t seed, std::size_t index) const;

  /// Durably appends `e` (write + flush) before recording it in memory.
  /// Throws std::runtime_error if the file cannot be opened or the write
  /// fails — an entry the disk did not accept is NOT added to entries(),
  /// so memory and disk never disagree about what is journaled, and a
  /// resume re-runs the replication instead of trusting a phantom entry.
  /// After a failed write the on-disk fragment is treated like a
  /// crash-truncated tail (separator first on the next append).
  void append(const JournalEntry& e);

 private:
  std::string path_;
  std::mutex mu_;
  std::vector<JournalEntry> entries_;
  /// True when the file on disk ends mid-line (crash-truncated tail): the
  /// next append must emit a '\n' first so it starts a fresh line.
  bool tail_needs_newline_ = false;
};

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

  /// run() with campaign resume: replications already present in `journal`
  /// (matched by seed AND index) are replayed from their journaled payload
  /// + metrics instead of being re-run; the rest execute normally and are
  /// appended to the journal as they complete. `encode`/`decode` round-trip
  /// the payload T through the journal's text format (the encoding may not
  /// contain newlines after escaping — the journal escapes '\\', tab and
  /// newline itself). Because MetricsRegistry serialization is bit-exact
  /// and aggregation stays in seed order, an interrupted-then-resumed
  /// campaign produces a merged registry digest-identical to an
  /// uninterrupted one.
  template <typename T>
  RunOutcome<T> run_resumable(
      const std::vector<std::uint64_t>& seeds,
      const std::function<T(ReplicationContext&)>& body,
      CampaignJournal& journal,
      const std::function<std::string(const T&)>& encode,
      const std::function<T(std::string_view)>& decode) const {
    return execute<T>(seeds, body, &journal, encode, decode);
  }

 private:
  /// The one fan-out loop behind run() and run_resumable(). `journal` is
  /// null for a plain run; `encode`/`decode` are then never called.
  template <typename T>
  RunOutcome<T> execute(const std::vector<std::uint64_t>& seeds,
                        const std::function<T(ReplicationContext&)>& body,
                        CampaignJournal* journal,
                        const std::function<std::string(const T&)>& encode,
                        const std::function<T(std::string_view)>& decode) const {
    RunOutcome<T> out;
    const std::size_t n = seeds.size();
    out.replications.resize(n);
    const auto batch_start = std::chrono::steady_clock::now();

    // Replay completed replications from the journal. The journal is read
    // back from disk, so an entry whose metrics image fails to parse or
    // whose payload the caller cannot decode (version skew, foreign
    // content) is re-run, never trusted and never fatal.
    std::vector<char> done(n, 0);
    for (std::size_t i = 0; journal && i < n; ++i) {
      const JournalEntry* e = journal->find(seeds[i], i);
      if (!e) continue;
      auto metrics = MetricsRegistry::deserialize(e->metrics);
      if (!metrics) continue;
      ReplicationResult<T>& r = out.replications[i];
      try {
        r.payload = decode(e->payload);
      } catch (...) {
        continue;
      }
      r.seed = seeds[i];
      r.index = i;
      r.ok = true;
      r.wall_ms = e->wall_ms;
      r.metrics = std::move(*metrics);
      done[i] = 1;
      ++out.resumed;
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> journal_failures{0};
    auto drain = [&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        if (done[i]) continue;
        run_one(seeds[i], i, body, out.replications[i]);
        const ReplicationResult<T>& r = out.replications[i];
        // Failures are not journaled: a resume retries them.
        if (!journal || !r.ok) continue;
        // append() throws when the disk refuses the entry. The result
        // itself is still good — count the durability loss instead of
        // letting the exception tear down a worker thread (which would
        // terminate the process) or fail the replication.
        try {
          journal->append(JournalEntry{r.seed, r.index, r.wall_ms,
                                       encode(r.payload), r.metrics.serialize()});
        } catch (const std::exception&) {
          journal_failures.fetch_add(1, std::memory_order_relaxed);
        }
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
    out.journal_write_failures = journal_failures.load(std::memory_order_relaxed);
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
