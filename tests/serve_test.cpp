// Campaign service (serve/serve.h): canonical prefix/query hashing, the
// bounded LRU checkpoint cache, digest identity between served and
// serially re-simulated answers across worker counts, admission control,
// and per-query failure isolation with serial repro lines.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "dissem/scenario.h"
#include "serve/serve.h"

namespace iobt {
namespace {

using serve::CampaignService;
using serve::Query;

/// A small, fully pinned scenario: every field a literal so the golden
/// cross-process hash below is meaningful, and cheap enough that identity
/// tests re-simulate it many times.
dissem::DissemSpec tiny_spec() {
  dissem::DissemSpec spec;
  spec.name = "tiny";
  dissem::LayerSpec l;
  l.layer = net::kLayerGround;
  l.nodes = 12;
  l.gateways = 2;
  l.radio.range_m = 150.0;
  l.radio.data_rate_bps = 1e6;
  l.radio.base_loss = 0.01;
  l.device = things::DeviceClass::kSensorMote;
  l.speed_mps = 3.0;
  spec.layers = {l};
  spec.mobility = dissem::MobilityKind::kWaypoint;
  spec.attack = dissem::AttackCampaign::kNone;
  spec.intensity = 0.0;
  spec.area = sim::Rect{{0, 0}, {300, 300}};
  spec.horizon_s = 20.0;
  spec.seed_time_s = 2.0;
  return spec;
}

Query tiny_query(std::uint64_t seed = 42,
                 dissem::AttackCampaign attack = dissem::AttackCampaign::kNone,
                 double intensity = 0.0) {
  Query q;
  q.spec = tiny_spec();
  q.seed = seed;
  q.branch_time_s = 15.0;
  q.delta.attack = attack;
  q.delta.intensity = intensity;
  return q;
}

// ------------------------------------------------ Prefix canonicalization ----

TEST(PrefixHash, IgnoresDisplayName) {
  Query a = tiny_query();
  Query b = tiny_query();
  b.spec.name = "a completely different label";
  EXPECT_EQ(serve::prefix_hash(a), serve::prefix_hash(b));
  EXPECT_EQ(serve::query_hash(a), serve::query_hash(b));
}

TEST(PrefixHash, EverySemanticFieldIsDistinguishing) {
  const std::uint64_t base = serve::prefix_hash(tiny_query());
  std::set<std::uint64_t> seen{base};
  const auto expect_distinct = [&](const Query& q, const char* what) {
    const std::uint64_t h = serve::prefix_hash(q);
    EXPECT_NE(h, base) << what;
    EXPECT_TRUE(seen.insert(h).second) << what << " collided with another variant";
  };

  { Query q = tiny_query(); q.seed = 43; expect_distinct(q, "seed"); }
  { Query q = tiny_query(); q.branch_time_s = 14.0; expect_distinct(q, "branch point"); }
  { Query q = tiny_query(); q.spec.horizon_s = 21.0; expect_distinct(q, "horizon"); }
  { Query q = tiny_query(); q.spec.seed_time_s = 3.0; expect_distinct(q, "seed time"); }
  { Query q = tiny_query(); q.spec.mobility = dissem::MobilityKind::kPatrol;
    expect_distinct(q, "mobility"); }
  { Query q = tiny_query(); q.spec.attack = dissem::AttackCampaign::kJamming;
    expect_distinct(q, "declared attack"); }
  { Query q = tiny_query(); q.spec.intensity = 0.5; expect_distinct(q, "intensity"); }
  { Query q = tiny_query(); q.spec.area.max.x = 400; expect_distinct(q, "area"); }
  { Query q = tiny_query(); q.spec.gossip.regossip_rounds = 4;
    expect_distinct(q, "gossip rounds"); }
  { Query q = tiny_query(); q.spec.gossip.alert_bytes = 64;
    expect_distinct(q, "alert bytes"); }
  { Query q = tiny_query(); q.spec.gossip.kind = "dissem.other";
    expect_distinct(q, "gossip kind"); }
  { Query q = tiny_query();
    q.spec.gossip.forward_delay = sim::Duration::seconds(1.5);
    expect_distinct(q, "forward delay"); }
  { Query q = tiny_query(); q.spec.layers[0].nodes = 13; expect_distinct(q, "nodes"); }
  { Query q = tiny_query(); q.spec.layers[0].gateways = 3;
    expect_distinct(q, "gateways"); }
  { Query q = tiny_query(); q.spec.layers[0].radio.range_m = 175.0;
    expect_distinct(q, "radio range"); }
  { Query q = tiny_query(); q.spec.layers[0].radio.base_loss = 0.05;
    expect_distinct(q, "base loss"); }
  { Query q = tiny_query(); q.spec.layers[0].speed_mps = 4.0;
    expect_distinct(q, "speed"); }
  { Query q = tiny_query();
    q.spec.layers[0].device = things::DeviceClass::kVehicle;
    expect_distinct(q, "device class"); }
  { Query q = tiny_query(); q.spec.layers.push_back(q.spec.layers[0]);
    expect_distinct(q, "layer count"); }
}

TEST(PrefixHash, DeltaChangesQueryKeyButNotPrefixKey) {
  const Query base = tiny_query();
  std::set<std::uint64_t> query_keys{serve::query_hash(base)};
  const auto variant = [&](const char* what, auto&& mutate) {
    Query q = base;
    mutate(q.delta);
    EXPECT_EQ(serve::prefix_hash(q), serve::prefix_hash(base)) << what;
    EXPECT_TRUE(query_keys.insert(serve::query_hash(q)).second)
        << what << " did not change the query key";
  };
  variant("attack", [](serve::WhatIfDelta& d) {
    d.attack = dissem::AttackCampaign::kJamming;
  });
  variant("intensity", [](serve::WhatIfDelta& d) { d.intensity = 0.4; });
  variant("delay", [](serve::WhatIfDelta& d) { d.delay_s = 0.75; });
  variant("salt", [](serve::WhatIfDelta& d) { d.salt = 9; });
}

TEST(PrefixHash, CanonicalDoublesFoldNegativeZero) {
  Query a = tiny_query();
  Query b = tiny_query();
  a.spec.area.min.x = 0.0;
  b.spec.area.min.x = -0.0;
  EXPECT_EQ(serve::prefix_hash(a), serve::prefix_hash(b));
}

TEST(PrefixHash, StableAcrossProcessRuns) {
  // Golden value: pinned so a rebuild, a different machine, or a different
  // process instance (std::hash is deliberately NOT used) cannot silently
  // re-key every persisted cache. If an INTENTIONAL canonicalization change
  // lands, update the constant in the same commit.
  EXPECT_EQ(serve::prefix_hash(tiny_spec(), 42, 15.0),
            0xdc07df8d7d4e4cd7ULL);
}

// ------------------------------------------------------- Service paths ----

TEST(CampaignService, ServedAnswersMatchUncachedAcrossWorkerCounts) {
  const std::vector<Query> batch = {
      tiny_query(42, dissem::AttackCampaign::kNone, 0.0),
      tiny_query(42, dissem::AttackCampaign::kJamming, 0.6),
      tiny_query(43, dissem::AttackCampaign::kGatewayHunt, 0.8),
      tiny_query(43, dissem::AttackCampaign::kCombined, 0.5),
  };
  std::vector<std::uint64_t> reference;
  for (const Query& q : batch) {
    reference.push_back(CampaignService::run_uncached(q).digest);
  }
  // Distinct what-ifs must actually be distinct futures, or the identity
  // check below proves nothing.
  EXPECT_EQ(std::set<std::uint64_t>(reference.begin(), reference.end()).size(),
            reference.size());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    CampaignService::Options opts;
    opts.workers = workers;
    CampaignService svc(opts);
    const serve::BatchResult first = svc.submit(batch);
    ASSERT_EQ(first.results.size(), batch.size());
    EXPECT_EQ(first.failures, 0u);
    EXPECT_EQ(first.prefix_sims, 2u);  // two distinct (spec, seed, branch)
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(first.results[i].ok);
      EXPECT_EQ(first.results[i].outcome.digest, reference[i])
          << "workers=" << workers << " query=" << i;
    }
    // Resubmit: everything is a cache hit and the answers do not move.
    const serve::BatchResult second = svc.submit(batch);
    EXPECT_EQ(second.prefix_sims, 0u);
    EXPECT_EQ(second.cache_hits, batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(second.results[i].cache_hit);
      EXPECT_EQ(second.results[i].outcome.digest, reference[i]);
    }
  }
}

TEST(CampaignService, BoundedCacheEvictsAndClearCacheEmpties) {
  CampaignService::Options opts;
  opts.workers = 0;  // inline serial: cheap and deterministic
  opts.cache_capacity = 2;
  CampaignService svc(opts);
  const auto one = [&](std::uint64_t seed) {
    return svc.submit({tiny_query(seed)});
  };
  (void)one(1);  // cache: {1}
  (void)one(2);  // cache: {2, 1}
  EXPECT_EQ(svc.cache_stats().evictions, 0u);
  (void)one(1);  // hit refreshes 1
  EXPECT_EQ(svc.cache_stats().hits, 1u);
  (void)one(3);  // over capacity: one of the residents is evicted
  EXPECT_EQ(svc.cache_stats().evictions, 1u);
  EXPECT_EQ(svc.cache_stats().entries, 2u);
  EXPECT_EQ(svc.cache_stats().misses, 3u);

  svc.clear_cache();
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  EXPECT_EQ(one(1).prefix_sims, 1u);
}

TEST(CampaignService, EvictionIsCostAwareNotPureLru) {
  CampaignService::Options opts;
  opts.workers = 0;
  opts.cache_capacity = 2;
  CampaignService svc(opts);
  // One prefix is ~the whole horizon to rebuild, the others nearly free:
  // under cost-aware eviction the expensive snapshot survives pressure
  // that plain LRU would evict it under (it IS the least recently used
  // entry when the second cheap prefix arrives).
  Query expensive = tiny_query(1);
  expensive.branch_time_s = 19.5;
  Query cheap1 = tiny_query(2);
  cheap1.branch_time_s = 0.1;
  Query cheap2 = tiny_query(3);
  cheap2.branch_time_s = 0.1;

  (void)svc.submit({expensive});  // cache: {expensive}
  (void)svc.submit({cheap1});     // cache: {cheap1, expensive}
  (void)svc.submit({cheap2});     // pressure: a CHEAP entry must go
  EXPECT_EQ(svc.cache_stats().evictions, 1u);
  const serve::BatchResult res = svc.submit({expensive});
  EXPECT_EQ(res.prefix_sims, 0u) << "cost-aware eviction dropped the "
                                    "most-expensive-to-rebuild snapshot";
  EXPECT_TRUE(res.results[0].cache_hit);
}

TEST(CampaignService, BatchDedupIsDistinguishedFromCacheHits) {
  CampaignService::Options opts;
  opts.workers = 2;
  CampaignService svc(opts);
  const std::vector<Query> batch = {
      tiny_query(80, dissem::AttackCampaign::kNone, 0.0),
      tiny_query(80, dissem::AttackCampaign::kJamming, 0.5),
      tiny_query(80, dissem::AttackCampaign::kCombined, 0.5)};
  const serve::BatchResult first = svc.submit(batch);
  // One cold prefix sim; the two riders are batch-dedup, NOT cache hits —
  // nothing was in any cache when this batch arrived.
  EXPECT_EQ(first.failures, 0u);
  EXPECT_EQ(first.prefix_sims, 1u);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.batch_dedup, 2u);
  EXPECT_FALSE(first.results[0].cache_hit);
  EXPECT_FALSE(first.results[0].batch_dedup);
  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_TRUE(first.results[i].batch_dedup);
    EXPECT_FALSE(first.results[i].cache_hit);
  }
  // Resubmit: now the prefix IS cached, so all three are genuine hits.
  const serve::BatchResult second = svc.submit(batch);
  EXPECT_EQ(second.cache_hits, 3u);
  EXPECT_EQ(second.batch_dedup, 0u);
  EXPECT_EQ(svc.cache_stats().hits, 3u);
  EXPECT_EQ(svc.cache_stats().batch_dedup, 2u);
  EXPECT_EQ(svc.cache_stats().misses, 1u);
}

TEST(CampaignService, FailingSharedPrefixCountsNoHitsAndNoDedup) {
  // Three queries share one prefix whose simulation THROWS. The old
  // accounting marked the two riders as cache hits before the prefix sim
  // ever ran; they must report neither cache_hit nor batch_dedup.
  CampaignService::Options opts;
  opts.workers = 2;
  CampaignService svc(opts);
  Query bad = tiny_query(90);
  bad.spec.gossip.regossip_rounds = 0;  // DissemScenario rejects this
  const serve::BatchResult res = svc.submit({bad, bad, bad});
  EXPECT_EQ(res.failures, 3u);
  EXPECT_EQ(res.cache_hits, 0u);
  EXPECT_EQ(res.batch_dedup, 0u);
  for (const serve::QueryResult& r : res.results) {
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.cache_hit);
    EXPECT_FALSE(r.batch_dedup);
    EXPECT_NE(r.error.find("regossip_rounds"), std::string::npos);
  }
  EXPECT_EQ(svc.cache_stats().hits, 0u);
  EXPECT_EQ(svc.cache_stats().batch_dedup, 0u);
}

TEST(CampaignService, AdmissionGateShedsQueriesPastTheBudget) {
  CampaignService::Options opts;
  opts.workers = 2;
  opts.max_batch_queries = 2;
  CampaignService svc(opts);
  const std::vector<Query> batch = {tiny_query(50), tiny_query(50),
                                    tiny_query(51), tiny_query(52)};
  const serve::BatchResult res = svc.submit(batch);
  EXPECT_EQ(res.rejected, 2u);
  EXPECT_EQ(res.failures, 0u);
  EXPECT_TRUE(res.results[0].ok);
  EXPECT_TRUE(res.results[1].ok);
  for (std::size_t i : {std::size_t{2}, std::size_t{3}}) {
    EXPECT_TRUE(res.results[i].rejected);
    EXPECT_FALSE(res.results[i].ok);
    EXPECT_NE(res.results[i].error.find("admission"), std::string::npos);
  }
  // Rejected queries never simulate: their prefixes stay out of the cache.
  EXPECT_EQ(res.prefix_sims, 1u);
}

TEST(CampaignService, FailingQueryIsIsolatedAndCarriesSerialRepro) {
  CampaignService::Options opts;
  opts.workers = 2;
  opts.repro_program = "bench_serve";
  CampaignService svc(opts);
  Query bad = tiny_query(60);
  bad.spec.gossip.regossip_rounds = 0;  // DissemScenario rejects this
  const std::vector<Query> batch = {tiny_query(61), bad, tiny_query(62)};
  const serve::BatchResult res = svc.submit(batch);
  EXPECT_EQ(res.failures, 1u);
  EXPECT_TRUE(res.results[0].ok);
  EXPECT_TRUE(res.results[2].ok);
  const serve::QueryResult& r = res.results[1];
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("regossip_rounds"), std::string::npos);
  EXPECT_NE(r.repro.find("bench_serve --uncached"), std::string::npos);
  EXPECT_NE(r.repro.find("seed=60"), std::string::npos);
}

TEST(CampaignService, ReproLineRoundTripsAtFullPrecision) {
  // Doubles chosen so 6-significant-digit formatting (%g) would print a
  // DIFFERENT query: re-hashing a %g repro yields the wrong prefix, and
  // the serial repro silently reproduces the wrong what-if. %.17g must
  // round-trip each of them exactly.
  CampaignService::Options opts;
  opts.workers = 1;
  opts.repro_program = "bench_serve";
  CampaignService svc(opts);
  Query bad = tiny_query(77, dissem::AttackCampaign::kJamming, 0.1 + 0.2);
  bad.branch_time_s = 14.000000123456789;
  bad.delta.delay_s = 1.0 / 3.0;
  bad.delta.salt = 5;
  bad.spec.gossip.regossip_rounds = 0;  // force a failure to get a repro
  const serve::BatchResult res = svc.submit({bad});
  ASSERT_EQ(res.failures, 1u);
  const std::string& repro = res.results[0].repro;
  ASSERT_FALSE(repro.empty());

  const auto parse_after = [&](const std::string& tag) {
    const auto pos = repro.find(tag);
    EXPECT_NE(pos, std::string::npos) << tag << " missing from: " << repro;
    return std::strtod(repro.c_str() + pos + tag.size(), nullptr);
  };
  Query rebuilt = bad;  // the repro assumes the spec; doubles come from it
  rebuilt.branch_time_s = parse_after("branch=");
  rebuilt.delta.delay_s = parse_after("delay=");
  const auto colon = repro.find(':', repro.find("delta="));
  ASSERT_NE(colon, std::string::npos);
  rebuilt.delta.intensity = std::strtod(repro.c_str() + colon + 1, nullptr);

  EXPECT_EQ(rebuilt.branch_time_s, bad.branch_time_s);
  EXPECT_EQ(rebuilt.delta.delay_s, bad.delta.delay_s);
  EXPECT_EQ(rebuilt.delta.intensity, bad.delta.intensity);
  EXPECT_EQ(serve::prefix_hash(rebuilt), res.results[0].prefix);
  EXPECT_EQ(serve::query_hash(rebuilt), serve::query_hash(bad));

  // The printed "# prefix" stamp names the same prefix the rebuilt query
  // re-hashes to — the repro line is internally consistent.
  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "%016llx",
                static_cast<unsigned long long>(serve::prefix_hash(rebuilt)));
  EXPECT_NE(repro.find(stamp), std::string::npos) << repro;
}

}  // namespace
}  // namespace iobt
