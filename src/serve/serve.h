#pragma once
// Campaign service: a long-running what-if server over the checkpoint cache.
//
// The paper's IoBT vision is a standing decision-support capability, not a
// one-shot simulation: commanders continuously ask "what happens if the
// adversary escalates HERE" against a live battlefield model. Each query
// names (scenario spec, seed, branch point, what-if delta). Naively every
// query costs a full simulation from t = 0; but queries about the same
// battlefield share everything UP TO the branch point, and the PR-5
// snapshot blobs are immutable and restore into many fresh stacks
// concurrently — a shared cache waiting to happen.
//
// CampaignService therefore keys every query by a CANONICAL scenario-prefix
// hash over (spec semantics, seed, branch point) — sim/hash.h, stable
// across process runs, display labels excluded — simulates each distinct
// prefix once, parks its sim::Snapshot in a bounded cache, and fans the
// admitted branches out over sim::ParallelRunner. Admission is index-based
// and decided in submit() itself: queries past Options::max_batch_queries
// come back rejected and never reach the runner.
// The correctness bar is unchanged from bench_checkpoint: a cached answer
// must be digest-identical to serially re-simulating the whole query from
// t = 0 (run_uncached is that reference, and the per-query repro line). A
// query that throws is captured per-query — one failing what-if never
// poisons the batch.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dissem/scenario.h"
#include "sim/checkpoint.h"
#include "sim/runner.h"
#include "sim/snapshot_store.h"

namespace iobt::serve {

/// The what-if applied to the branch after the prefix is restored: an
/// extra attack campaign layered on top of whatever the spec already
/// declared, landing `delay_s` after the branch point. Plain data — it is
/// part of the query key (query_hash), never of the prefix key.
struct WhatIfDelta {
  dissem::AttackCampaign attack = dissem::AttackCampaign::kNone;
  /// Severity knob in [0, 1], same scale as DissemSpec::intensity.
  double intensity = 0.0;
  /// Seconds after the branch point when the delta lands. Deliberately
  /// off the tick/gossip grid by default so no timestamp tie-break depends
  /// on how the branch reached the branch point.
  double delay_s = 0.33;
  /// Salt for the delta's private RNG stream: two otherwise-equal deltas
  /// with different salts are distinct futures (and distinct query keys).
  std::uint64_t salt = 0;
};

/// One what-if query: simulate `spec` from `seed` up to `branch_time_s`
/// (the shared prefix), then apply `delta` and run to the spec horizon.
struct Query {
  dissem::DissemSpec spec;
  std::uint64_t seed = 0;
  double branch_time_s = 0.0;
  WhatIfDelta delta;
};

/// Canonical scenario-prefix hash: everything that determines the shared
/// prefix — spec semantics (layers, mobility, attack campaign, intensity,
/// area, horizon, seed time, gossip config; NOT the display name), seed,
/// and branch point. Semantically equal prefixes hash equal; any semantic
/// difference hashes distinct; the value is stable across process runs.
std::uint64_t prefix_hash(const dissem::DissemSpec& spec, std::uint64_t seed,
                          double branch_time_s);
std::uint64_t prefix_hash(const Query& q);

/// Full query key: the prefix key extended with the delta. Two queries
/// sharing a prefix but differing in any delta field are distinct.
std::uint64_t query_hash(const Query& q);

/// Per-query answer, in input order.
struct QueryResult {
  bool ok = false;
  /// True when admission shed this query (never simulated).
  bool rejected = false;
  /// True when the prefix snapshot came from the cache — memory tier or
  /// disk tier — without this batch simulating it for this query.
  bool cache_hit = false;
  /// True when this query was deduplicated onto a prefix some EARLIER
  /// query in the same batch simulated cold. Not a cache hit: the prefix
  /// sim ran in this batch; this query just shared it. Mutually exclusive
  /// with cache_hit, and only set when the shared prefix sim succeeded.
  bool batch_dedup = false;
  std::uint64_t prefix = 0;  ///< prefix_hash of the query
  dissem::DissemOutcome outcome;  ///< outcome.digest is the identity bar
  /// Service time attributable to this query: its branch run, plus its
  /// share of the prefix simulation when this batch had to run one.
  double latency_ms = 0.0;
  std::string error;  ///< empty when ok
  /// One-line serial reproduction of this query outside the service
  /// (run_uncached path), filled for failures.
  std::string repro;
};

struct BatchResult {
  std::vector<QueryResult> results;  ///< input order
  std::size_t cache_hits = 0;   ///< memory-tier + disk-tier hits
  std::size_t batch_dedup = 0;  ///< queries deduped onto an in-batch cold sim
  std::size_t disk_hits = 0;    ///< cache_hits served by the disk tier
  std::size_t prefix_sims = 0;  ///< distinct cold prefixes simulated
  std::size_t rejected = 0;
  std::size_t failures = 0;  ///< failed queries (rejected excluded)
  double wall_ms = 0.0;
};

/// Long-running campaign service. submit() is synchronous per batch and
/// externally synchronized (one caller thread); the parallelism is inside,
/// across prefix simulations and branch fan-out. The checkpoint cache and
/// its hit/miss statistics persist across batches — the service's whole
/// point is that a standing query stream keeps the cache hot.
class CampaignService {
 public:
  struct Options {
    /// Worker pool for prefix simulation and branch fan-out (ParallelRunner
    /// semantics: 0 = inline serial; results are worker-count-invariant).
    std::size_t workers = 1;
    /// Bounded capacity of the in-memory checkpoint cache, in snapshots.
    /// Each entry is one immutable scenario-prefix Snapshot. Eviction is
    /// cost-aware: the victim minimizes rebuild-cost / recency (a 50 s
    /// prefix outlives a 5 s one of equal recency), so admission never
    /// lets a cheap newcomer displace an expensive resident.
    std::size_t cache_capacity = 64;
    /// Admission budget per submit(): queries past this index come back
    /// `rejected`, never simulated. Index-based, so the admitted set is
    /// deterministic.
    std::size_t max_batch_queries = 1024;
    /// Program name stamped into per-query repro lines.
    std::string repro_program = "bench_serve";
    /// Directory of the durable snapshot tier (SnapshotStore). Empty
    /// disables the disk tier: the service is then memory-only, exactly
    /// the pre-durability behaviour. When set, every cold prefix's
    /// snapshot image is persisted (crash-safe temp-file + rename), and a
    /// restarted service re-warms from disk — answering digest-identically
    /// to run_uncached, by the same contract as the memory tier.
    /// Corrupt/truncated/mismatched files are rejected back to a cold
    /// simulation, never a crash.
    std::string snapshot_dir;
  };

  explicit CampaignService(Options opts);

  /// Answers a batch: dedup prefixes -> simulate cold prefixes (cache
  /// misses) once each -> fan every admitted query's branch out on the
  /// runner. Per-query digests are independent of cache state, batch
  /// composition, and worker count.
  BatchResult submit(const std::vector<Query>& queries);

  /// The serial reference: simulate `q` from t = 0 with no cache, no
  /// snapshot, no pool. Digest-identical to the served answer by the
  /// checkpoint-equivalence contract (tests and bench_serve enforce it).
  static dissem::DissemOutcome run_uncached(const Query& q);

  struct CacheStats {
    std::size_t entries = 0;
    std::size_t hits = 0;         ///< lifetime cache hits (memory + disk)
    std::size_t misses = 0;       ///< lifetime prefix simulations
    std::size_t evictions = 0;    ///< lifetime memory-tier evictions
    std::size_t batch_dedup = 0;  ///< queries deduped onto in-batch cold sims
    std::size_t disk_hits = 0;    ///< hits served by re-warming from disk
    std::size_t disk_rejects = 0; ///< disk files rejected (corrupt/mismatch)
    std::size_t disk_stores = 0;  ///< snapshots durably written to disk
  };
  CacheStats cache_stats() const { return stats_; }
  void clear_cache();

 private:
  struct CacheEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const sim::Snapshot> snapshot;
    /// Wall time it took to (re)build this snapshot — the cold prefix
    /// simulation, or the disk load + decode for re-warmed entries. The
    /// cost side of the eviction score.
    double rebuild_ms = 0.0;
    /// use_clock_ stamp of the last touch; the recency side of the score.
    std::uint64_t last_use = 0;
  };

  /// Memory-tier lookup; refreshes recency on hit. nullptr on miss.
  std::shared_ptr<const sim::Snapshot> cache_get(std::uint64_t key);
  /// Inserts/refreshes an entry, then evicts while over capacity by
  /// minimum rebuild_ms / (1 + age) — cost-aware admission: the newcomer
  /// itself is evictable if it is the cheapest-per-staleness entry.
  void cache_put(std::uint64_t key, std::shared_ptr<const sim::Snapshot> snap,
                 double rebuild_ms);
  /// Disk-tier lookup: load, verify, decode against a scratch stack built
  /// from `q`, stamp-check. nullptr on miss or any rejection (which also
  /// bumps stats_.disk_rejects).
  std::shared_ptr<const sim::Snapshot> disk_get(std::uint64_t key,
                                                const Query& q);

  /// Memory-tier entry for `key`, or nullptr. A linear scan: the cache
  /// holds at most Options::cache_capacity entries.
  CacheEntry* cache_find(std::uint64_t key);

  Options opts_;
  std::vector<CacheEntry> cache_;  ///< unordered; recency lives in last_use
  CacheStats stats_;
  /// Durable tier; null when Options::snapshot_dir is empty.
  std::unique_ptr<sim::SnapshotStore> store_;
  /// Monotonic touch counter driving the eviction recency term.
  std::uint64_t use_clock_ = 0;
};

/// Applies `q.delta` to a live stack sitting at the branch point. Shared
/// by the served (restore) path and the run_uncached reference so both
/// futures are built by literally the same code — a precondition of the
/// digest-identity contract.
void apply_delta(dissem::DissemScenario& s, const Query& q);

}  // namespace iobt::serve
