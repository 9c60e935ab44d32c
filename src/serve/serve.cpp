#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "sim/hash.h"

namespace iobt::serve {

namespace {

/// Stream salt for delta RNG trees: a delta's draws are independent of
/// every stream the scenario itself uses (dissem/scenario.cpp salts).
constexpr std::uint64_t kDeltaSalt = 0x5E12E7ADE17AULL;

void mix_spec(sim::StableHash& h, const dissem::DissemSpec& spec) {
  // Field order is the key definition — append new fields at the end.
  // spec.name is deliberately excluded: it is a display label, and two
  // queries about the same battlefield must collide regardless of label.
  h.mix_size(spec.layers.size());
  for (const dissem::LayerSpec& ls : spec.layers) {
    h.mix_enum(ls.layer)
        .mix_size(ls.nodes)
        .mix_size(ls.gateways)
        .mix_double(ls.radio.range_m)
        .mix_double(ls.radio.data_rate_bps)
        .mix_double(ls.radio.base_loss)
        .mix_enum(ls.device)
        .mix_double(ls.speed_mps);
  }
  h.mix_enum(spec.mobility)
      .mix_enum(spec.attack)
      .mix_double(spec.intensity)
      .mix_double(spec.area.min.x)
      .mix_double(spec.area.min.y)
      .mix_double(spec.area.max.x)
      .mix_double(spec.area.max.y)
      .mix_double(spec.horizon_s)
      .mix_double(spec.seed_time_s)
      .mix_i64(spec.gossip.forward_delay.nanos())
      .mix_i64(spec.gossip.regossip_period.nanos())
      .mix_i64(spec.gossip.regossip_rounds)
      .mix_size(spec.gossip.alert_bytes)
      .mix_str(spec.gossip.kind);
}

double now_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string attack_name(dissem::AttackCampaign a) { return dissem::to_string(a); }

}  // namespace

std::uint64_t prefix_hash(const dissem::DissemSpec& spec, std::uint64_t seed,
                          double branch_time_s) {
  sim::StableHash h("serve.prefix");
  mix_spec(h, spec);
  h.mix_u64(seed);
  // The branch point is quantized to kernel time resolution: two branch
  // times the kernel cannot tell apart name the same prefix.
  h.mix_i64(sim::SimTime::seconds(branch_time_s).nanos());
  return h.digest();
}

std::uint64_t prefix_hash(const Query& q) {
  return prefix_hash(q.spec, q.seed, q.branch_time_s);
}

std::uint64_t query_hash(const Query& q) {
  sim::StableHash h("serve.query");
  h.mix_u64(prefix_hash(q))
      .mix_enum(q.delta.attack)
      .mix_double(q.delta.intensity)
      .mix_i64(sim::Duration::seconds(q.delta.delay_s).nanos())
      .mix_u64(q.delta.salt);
  return h.digest();
}

void apply_delta(dissem::DissemScenario& s, const Query& q) {
  const WhatIfDelta& d = q.delta;
  if (d.attack == dissem::AttackCampaign::kNone || d.intensity <= 0.0) {
    return;  // pure branch: replay the declared future unchanged
  }
  const double k = std::min(1.0, d.intensity);
  const double t0 = q.branch_time_s + d.delay_s;
  const double horizon = q.spec.horizon_s;
  sim::Rng rng = sim::Rng(q.seed ^ kDeltaSalt).child(d.salt);
  const sim::Rect& area = s.spec().area;
  const double min_side = std::min(area.width(), area.height());

  const auto jam = [&](double strength) {
    s.attacks.schedule_jamming(area.center(), 0.4 * min_side,
                               sim::SimTime::seconds(t0),
                               sim::SimTime::seconds(horizon), strength);
  };
  const auto hunt_gateways = [&](double fraction) {
    // Strike the still-alive members of the original gateway roster, in
    // creation order, staggered 1.5 s. Liveness at the branch point is
    // identical in the served and uncached paths (the digest contract), so
    // both build the same kill list.
    const auto& roster = s.initial_gateways();
    const auto kills = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(roster.size())));
    std::size_t scheduled = 0;
    for (net::NodeId node : roster) {
      if (scheduled >= kills) break;
      const things::AssetId aid = s.world.asset_of_node(node);
      if (!s.world.asset_alive(aid)) continue;
      s.attacks.schedule_node_kill(
          aid, sim::SimTime::seconds(t0 + 1.5 * double(scheduled)));
      ++scheduled;
    }
  };
  switch (d.attack) {
    case dissem::AttackCampaign::kNone:
      break;
    case dissem::AttackCampaign::kJamming:
      jam(k);
      break;
    case dissem::AttackCampaign::kRegionStrike: {
      const sim::Rect strike{{area.min.x + 0.2 * area.width(),
                              area.min.y + 0.2 * area.height()},
                             {area.max.x - 0.2 * area.width(),
                              area.max.y - 0.2 * area.height()}};
      s.attacks.schedule_region_kill(strike, 0.85 * k,
                                     sim::SimTime::seconds(t0), rng);
      s.attacks.schedule_region_kill(strike, 0.45 * k,
                                     sim::SimTime::seconds(t0 + 2.75), rng);
      break;
    }
    case dissem::AttackCampaign::kGatewayHunt:
      hunt_gateways(k);
      break;
    case dissem::AttackCampaign::kCombined:
      jam(0.7 * k);
      hunt_gateways(k);
      break;
  }
}

CampaignService::CampaignService(Options opts) : opts_(std::move(opts)) {
  if (opts_.cache_capacity == 0) {
    throw std::invalid_argument("CampaignService: cache_capacity must be >= 1");
  }
  if (!opts_.snapshot_dir.empty()) {
    store_ = std::make_unique<sim::SnapshotStore>(opts_.snapshot_dir);
  }
}

dissem::DissemOutcome CampaignService::run_uncached(const Query& q) {
  dissem::DissemScenario s(q.spec, q.seed);
  s.sim.run_until(sim::SimTime::seconds(q.branch_time_s));
  apply_delta(s, q);
  s.sim.run_until(sim::SimTime::seconds(q.spec.horizon_s));
  return s.outcome();
}

CampaignService::CacheEntry* CampaignService::cache_find(std::uint64_t key) {
  for (CacheEntry& e : cache_) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

std::shared_ptr<const sim::Snapshot> CampaignService::cache_get(
    std::uint64_t key) {
  CacheEntry* e = cache_find(key);
  if (e == nullptr) return nullptr;
  e->last_use = ++use_clock_;  // refresh recency
  return e->snapshot;
}

void CampaignService::cache_put(std::uint64_t key,
                                std::shared_ptr<const sim::Snapshot> snap,
                                double rebuild_ms) {
  if (CacheEntry* e = cache_find(key)) {
    e->snapshot = std::move(snap);
    e->rebuild_ms = rebuild_ms;
    e->last_use = ++use_clock_;
    return;
  }
  cache_.push_back(CacheEntry{key, std::move(snap), rebuild_ms, ++use_clock_});
  // Cost-aware eviction: victim = argmin rebuild_ms / (1 + age). An
  // expensive prefix (50 s to rebuild) outlives a cheap one (5 s) across
  // a long recency gap, and the newcomer itself competes — if it is the
  // cheapest-per-staleness entry, IT is the one evicted (admission
  // control, not just eviction). Ties go to the least recently used
  // entry, preserving plain-LRU behaviour when all costs are equal.
  while (cache_.size() > opts_.cache_capacity) {
    std::size_t victim = 0;
    double victim_score = 0.0;
    for (std::size_t i = 0; i < cache_.size(); ++i) {
      const CacheEntry& e = cache_[i];
      const double age = static_cast<double>(use_clock_ - e.last_use);
      const double score = e.rebuild_ms / (1.0 + age);
      if (i == 0 || score < victim_score ||
          (score == victim_score && e.last_use < cache_[victim].last_use)) {
        victim = i;
        victim_score = score;
      }
    }
    cache_[victim] = std::move(cache_.back());
    cache_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const sim::Snapshot> CampaignService::disk_get(
    std::uint64_t key, const Query& q) {
  if (!store_) return nullptr;
  const auto load_start = std::chrono::steady_clock::now();
  std::string bytes;
  switch (store_->get(key, bytes)) {
    case sim::SnapshotStore::GetStatus::kMissing:
      return nullptr;
    case sim::SnapshotStore::GetStatus::kRejected:
      ++stats_.disk_rejects;
      return nullptr;
    case sim::SnapshotStore::GetStatus::kHit:
      break;
  }
  // Decode by restoring into a scratch stack built from the query itself:
  // the registry roster (participant keys, order) comes from the live
  // stack, so the image is validated by the same decoder, against exactly
  // the scenario this query would cold-simulate. A file from a different
  // roster decodes to nullopt; a file for a different prefix fails the
  // stamp check. Either way the caller falls back to a cold sim — never a
  // crash, never a silently divergent snapshot.
  try {
    dissem::DissemScenario s(q.spec, q.seed);
    auto snap = s.sim.checkpoint().deserialize_snapshot(bytes);
    if (!snap || snap->prefix_hash() != key) {
      ++stats_.disk_rejects;
      return nullptr;
    }
    auto shared = std::make_shared<const sim::Snapshot>(*std::move(snap));
    // The re-warmed entry's rebuild cost is its load+decode wall — far
    // below a prefix sim, which is correct: evicting it is cheap because
    // it is STILL ON DISK.
    cache_put(key, shared, now_ms_since(load_start));
    ++stats_.disk_hits;
    return shared;
  } catch (const std::exception&) {
    // Scratch-stack construction failed (e.g. a spec this binary can no
    // longer build): treat like a rejected file.
    ++stats_.disk_rejects;
    return nullptr;
  }
}

void CampaignService::clear_cache() {
  cache_.clear();
  stats_.entries = 0;
}

BatchResult CampaignService::submit(const std::vector<Query>& queries) {
  const auto batch_start = std::chrono::steady_clock::now();
  BatchResult out;
  const std::size_t n = queries.size();
  out.results.resize(n);
  const std::size_t cap = opts_.max_batch_queries;
  // Admitted queries are exactly indices [0, admitted): only they are
  // simulated, and in the branch fan-out replication i is query i.
  const std::size_t admitted = std::min(cap, n);

  // ---- 1. Keys + admission marks (index-based, deterministic) ----------
  for (std::size_t i = 0; i < n; ++i) {
    QueryResult& r = out.results[i];
    r.prefix = prefix_hash(queries[i]);
    if (i >= admitted) {
      r.rejected = true;
      r.error = "rejected by admission gate (max_batch_queries=" +
                std::to_string(cap) + ")";
      ++out.rejected;
    }
  }

  // ---- 2. Prefix dedup: memory tier, then disk tier, then cold ---------
  // batch_snaps is filled before the fan-out and read-only during it.
  // cached_keys marks prefixes whose snapshot EXISTS already (memory or
  // disk); a query deduped onto one is a genuine cache hit. A query
  // deduped onto a cold placeholder is NOT — its prefix sim hasn't run
  // yet, let alone succeeded — so those are deferred to `deduped_cold`
  // and reconciled after step 3 (batch_dedup iff the shared sim worked).
  std::unordered_map<std::uint64_t, std::shared_ptr<const sim::Snapshot>>
      batch_snaps;
  std::unordered_map<std::uint64_t, std::string> prefix_errors;
  std::unordered_map<std::uint64_t, double> prefix_wall_ms;
  std::unordered_map<std::uint64_t, std::size_t> prefix_fanout;
  std::unordered_set<std::uint64_t> cached_keys;
  std::vector<std::size_t> cold;         // first query index per cold prefix
  std::vector<std::size_t> deduped_cold; // queries riding an in-batch cold sim
  for (std::size_t i = 0; i < admitted; ++i) {
    const std::uint64_t key = out.results[i].prefix;
    ++prefix_fanout[key];
    auto found = batch_snaps.find(key);
    if (found != batch_snaps.end()) {
      if (cached_keys.count(key)) {
        // Deduped onto a prefix the cache already held: real hit.
        out.results[i].cache_hit = true;
        ++stats_.hits;
      } else {
        deduped_cold.push_back(i);  // verdict pending on the cold sim
      }
      continue;
    }
    if (auto snap = cache_get(key)) {
      batch_snaps.emplace(key, std::move(snap));
      cached_keys.insert(key);
      out.results[i].cache_hit = true;
      ++stats_.hits;
      continue;
    }
    if (auto snap = disk_get(key, queries[i])) {
      // Re-warm: the durable tier had a verified snapshot. disk_get
      // already promoted it into the memory tier and counted disk_hits.
      batch_snaps.emplace(key, std::move(snap));
      cached_keys.insert(key);
      out.results[i].cache_hit = true;
      ++stats_.hits;
      ++out.disk_hits;
      continue;
    }
    batch_snaps.emplace(key, nullptr);  // placeholder: simulated below
    cold.push_back(i);
    ++stats_.misses;
  }
  out.prefix_sims = cold.size();

  // ---- 3. Simulate cold prefixes once each, in parallel ----------------
  // Each snapshot is its wire image, so the disk write needs nothing but
  // the snapshot; it happens on this thread afterwards, so the store sees
  // one writer.
  if (!cold.empty()) {
    const sim::ParallelRunner prefix_runner(opts_.workers);
    std::vector<std::uint64_t> seeds;
    seeds.reserve(cold.size());
    for (std::size_t i : cold) seeds.push_back(queries[i].seed);
    const auto prefixes = prefix_runner.run<std::shared_ptr<const sim::Snapshot>>(
        seeds, [&](sim::ReplicationContext& ctx) {
          const Query& q = queries[cold[ctx.index]];
          dissem::DissemScenario s(q.spec, q.seed);
          s.sim.run_until(sim::SimTime::seconds(q.branch_time_s));
          // The snapshot carries its prefix key; the branch body verifies
          // the stamp before restoring (cache-integrity check).
          return std::make_shared<const sim::Snapshot>(
              s.sim.checkpoint().save(out.results[cold[ctx.index]].prefix));
        });
    for (std::size_t j = 0; j < cold.size(); ++j) {
      const std::uint64_t key = out.results[cold[j]].prefix;
      const auto& rep = prefixes.replications[j];
      prefix_wall_ms[key] = rep.wall_ms;
      if (rep.ok) {
        batch_snaps[key] = rep.payload;
        cache_put(key, rep.payload, rep.wall_ms);
        if (store_ && store_->put(key, rep.payload->image())) ++stats_.disk_stores;
      } else {
        prefix_errors[key] = "prefix simulation failed: " + rep.error;
      }
    }
  }
  stats_.entries = cache_.size();

  // Reconcile the deferred dedup verdicts: a query that shared an
  // in-batch cold sim is batch_dedup iff that sim succeeded. Failures get
  // neither flag — the fan-out below surfaces the prefix error per query.
  for (std::size_t i : deduped_cold) {
    const std::uint64_t key = out.results[i].prefix;
    if (prefix_errors.count(key)) continue;
    out.results[i].batch_dedup = true;
    ++stats_.batch_dedup;
  }
  for (const QueryResult& r : out.results) {
    if (r.cache_hit) ++out.cache_hits;
    if (r.batch_dedup) ++out.batch_dedup;
  }

  // ---- 4. Branch fan-out over every admitted query ---------------------
  const sim::ParallelRunner branch_runner(opts_.workers);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(admitted);
  for (std::size_t i = 0; i < admitted; ++i) seeds.push_back(queries[i].seed);
  const auto branches = branch_runner.run<dissem::DissemOutcome>(
      seeds, [&](sim::ReplicationContext& ctx) {
        const Query& q = queries[ctx.index];
        const std::uint64_t key = out.results[ctx.index].prefix;
        auto err = prefix_errors.find(key);
        if (err != prefix_errors.end()) throw std::runtime_error(err->second);
        const auto& snap = batch_snaps.at(key);
        if (snap->prefix_hash() != key) {
          throw std::logic_error(
              "checkpoint cache integrity: snapshot prefix stamp mismatch");
        }
        dissem::DissemScenario s(q.spec, q.seed);
        s.sim.checkpoint().restore(*snap);
        apply_delta(s, q);
        s.sim.run_until(sim::SimTime::seconds(q.spec.horizon_s));
        return s.outcome();
      });

  // ---- 5. Fold runner results back into input order --------------------
  for (std::size_t i = 0; i < admitted; ++i) {
    QueryResult& r = out.results[i];
    const auto& rep = branches.replications[i];
    const Query& q = queries[i];
    r.latency_ms = rep.wall_ms;
    auto pw = prefix_wall_ms.find(r.prefix);
    if (pw != prefix_wall_ms.end()) {
      // Amortize the cold prefix simulation over every query it served in
      // this batch, so per-query latency reflects the shared-cache economics.
      r.latency_ms +=
          pw->second / static_cast<double>(std::max<std::size_t>(
                           1, prefix_fanout[r.prefix]));
    }
    if (rep.ok) {
      r.ok = true;
      r.outcome = rep.payload;
    } else {
      r.error = rep.error;
      // %.17g round-trips any double exactly (DBL_DECIMAL_DIG); %g's six
      // significant digits would reproduce a DIFFERENT query — one whose
      // prefix hash need not even match the one printed after '#'. The
      // delay= token completes the key: delay_s is part of query_hash.
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    " --uncached seed=%llu branch=%.17gs delta=%s:%.17g:%llu "
                    "delay=%.17g  # prefix %016llx",
                    static_cast<unsigned long long>(q.seed), q.branch_time_s,
                    attack_name(q.delta.attack).c_str(), q.delta.intensity,
                    static_cast<unsigned long long>(q.delta.salt),
                    q.delta.delay_s,
                    static_cast<unsigned long long>(r.prefix));
      r.repro = opts_.repro_program + buf;
      ++out.failures;
    }
  }
  out.wall_ms = now_ms_since(batch_start);
  return out;
}

}  // namespace iobt::serve
