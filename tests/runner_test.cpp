// ParallelRunner: seed-ordered aggregation, worker-count invariance,
// failure capture, campaign resume through the snapshot store, and the metrics snapshot/merge path the
// runner's aggregation rides on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/runner.h"
#include "sim/scenario_matrix.h"
#include "sim/simulator.h"
#include "sim/snapshot_store.h"
#include "sim/wire.h"

namespace iobt::sim {
namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// -------------------------------------------------------- ParallelRunner ----

TEST(ParallelRunnerTest, SeedRangeIsConsecutive) {
  const auto seeds = ParallelRunner::seed_range(100, 4);
  ASSERT_EQ(seeds.size(), 4u);
  EXPECT_EQ(seeds[0], 100u);
  EXPECT_EQ(seeds[3], 103u);
}

TEST(ParallelRunnerTest, ResultsArriveInSeedOrderForEveryWorkerCount) {
  const std::vector<std::uint64_t> seeds = {7, 3, 11, 5, 2, 13, 17, 1};
  for (std::size_t workers : {0u, 1u, 2u, 8u, 16u}) {
    const ParallelRunner runner(workers);
    const auto outcome = runner.run<double>(seeds, [](ReplicationContext& ctx) {
      return static_cast<double>(ctx.seed * 2 + ctx.index);
    });
    ASSERT_EQ(outcome.replications.size(), seeds.size());
    EXPECT_EQ(outcome.failures, 0u);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const auto& r = outcome.replications[i];
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.seed, seeds[i]);
      EXPECT_EQ(r.index, i);
      EXPECT_DOUBLE_EQ(r.payload, static_cast<double>(seeds[i] * 2 + i));
      EXPECT_GE(r.wall_ms, 0.0);
    }
  }
}

TEST(ParallelRunnerTest, WorkerPoolClampsToReplicationCount) {
  const ParallelRunner runner(16);
  const auto outcome = runner.run<int>(ParallelRunner::seed_range(0, 2),
                                       [](ReplicationContext&) { return 1; });
  EXPECT_EQ(outcome.workers, 2u);
  const ParallelRunner serial(0);
  EXPECT_EQ(serial
                .run<int>(ParallelRunner::seed_range(0, 2),
                          [](ReplicationContext&) { return 1; })
                .workers,
            0u);
}

TEST(ParallelRunnerTest, EmptySeedListIsHarmless) {
  const ParallelRunner runner(4);
  const auto outcome =
      runner.run<int>({}, [](ReplicationContext&) { return 1; });
  EXPECT_TRUE(outcome.replications.empty());
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_EQ(outcome.merged.digest(), MetricsRegistry{}.digest());
}

TEST(ParallelRunnerTest, MergedMetricsMatchHandRolledSerialLoop) {
  const auto seeds = ParallelRunner::seed_range(40, 9);
  const auto body = [](ReplicationContext& ctx) {
    ctx.metrics.count("reps");
    ctx.metrics.count("seed.total", static_cast<double>(ctx.seed));
    ctx.metrics.gauge("last.seed", static_cast<double>(ctx.seed));
    ctx.metrics.observe("seed.dist", static_cast<double>(ctx.seed % 5));
    return static_cast<double>(ctx.seed);
  };

  MetricsRegistry expected;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ReplicationContext ctx;
    ctx.seed = seeds[i];
    ctx.index = i;
    body(ctx);
    expected.merge_from(ctx.metrics);
  }

  for (std::size_t workers : {0u, 1u, 3u, 8u}) {
    const ParallelRunner runner(workers);
    const auto outcome = runner.run<double>(seeds, body);
    EXPECT_EQ(outcome.merged.digest(), expected.digest()) << workers;
    EXPECT_DOUBLE_EQ(outcome.merged.counter("reps"), 9.0);
    EXPECT_DOUBLE_EQ(outcome.merged.gauge_value("last.seed"), 48.0);
  }
}

TEST(ParallelRunnerTest, FailureIsCapturedWithoutTearingDownThePool) {
  const ParallelRunner runner(4);
  const auto seeds = ParallelRunner::seed_range(1, 8);
  const auto outcome = runner.run<double>(seeds, [](ReplicationContext& ctx) {
    if (ctx.seed == 5) throw std::runtime_error("invariant violated: seed 5");
    return 1.0;
  });
  EXPECT_EQ(outcome.failures, 1u);
  ASSERT_EQ(outcome.replications.size(), 8u);
  for (const auto& r : outcome.replications) {
    if (r.seed == 5) {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.payload, 0.0);  // default-constructed on failure
      EXPECT_NE(r.error.find("invariant violated"), std::string::npos);
    } else {
      EXPECT_TRUE(r.ok) << r.seed;
      EXPECT_DOUBLE_EQ(r.payload, 1.0);
    }
  }
  // Failed replications contribute nothing to stats().
  EXPECT_EQ(outcome.stats([](const double& x) { return x; }).count(), 7u);
}

TEST(ParallelRunnerTest, NonStdExceptionIsCaptured) {
  const ParallelRunner runner(2);
  const auto outcome = runner.run<int>(
      ParallelRunner::seed_range(0, 3), [](ReplicationContext& ctx) -> int {
        if (ctx.index == 1) throw 42;
        return 0;
      });
  EXPECT_EQ(outcome.failures, 1u);
  EXPECT_EQ(outcome.replications[1].error, "non-std exception");
}

TEST(ParallelRunnerTest, RepeatedRunsAreBitIdentical) {
  const auto seeds = ParallelRunner::seed_range(7, 10);
  const auto body = [](ReplicationContext& ctx) {
    Rng rng = ctx.make_rng();
    double acc = 0;
    for (int i = 0; i < 50; ++i) acc += rng.normal(0, 1);
    ctx.metrics.observe("acc", acc);
    return acc;
  };
  const ParallelRunner runner(4);
  const auto a = runner.run<double>(seeds, body);
  const auto b = runner.run<double>(seeds, body);
  EXPECT_EQ(a.merged.digest(), b.merged.digest());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(bits_of(a.replications[i].payload),
              bits_of(b.replications[i].payload));
  }
}

// ------------------------------------------------------ Campaign resume ----

namespace {

/// Fresh per-test store directory under the gtest temp dir.
std::string temp_store_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/iobt_runner_store_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string encode_double(const double& x) {
  return std::to_string(bits_of(x));
}

double decode_double(std::string_view s) {
  const std::uint64_t bits = std::stoull(std::string(s));
  double x = 0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

std::string encode_string(const std::string& s) { return s; }
std::string decode_string(std::string_view s) { return std::string(s); }

}  // namespace

TEST(ReplicationStoreTest, BinaryPayloadRoundTripsAndLastWriteWins) {
  SnapshotStore store(temp_store_dir("roundtrip"));
  const std::vector<std::uint64_t> seeds = {7, 8};
  const std::string binary("tab\there\nand\rback\\slash\0nul", 28);
  std::atomic<std::size_t> runs{0};
  const auto body = [&](ReplicationContext& ctx) {
    runs.fetch_add(1, std::memory_order_relaxed);
    ctx.metrics.count("c", 3);
    ctx.metrics.observe("lat", 0.25);
    return ctx.index == 0 ? binary : std::string("plain");
  };
  const ParallelRunner runner(2);
  const auto first =
      runner.run_resumable<std::string>(seeds, body, store, encode_string, decode_string);
  EXPECT_EQ(first.store_write_failures, 0u);
  EXPECT_EQ(store.file_count(), 2u);

  // Every separator and escape character survives the round trip, and the
  // metrics image replays bit-exactly.
  const auto replayed =
      runner.run_resumable<std::string>(seeds, body, store, encode_string, decode_string);
  EXPECT_EQ(runs.load(), 2u);
  EXPECT_EQ(replayed.resumed, 2u);
  EXPECT_EQ(replayed.replications[0].payload, binary);
  EXPECT_EQ(replayed.replications[1].payload, "plain");
  EXPECT_EQ(bits_of(replayed.replications[0].wall_ms),
            bits_of(first.replications[0].wall_ms));
  EXPECT_EQ(replayed.merged.digest(), first.merged.digest());

  // A second put under the same key supersedes the first: last write wins.
  ASSERT_TRUE(store.put(replication_key(7, 0),
                        encode_replication(9.0, "rewritten",
                                           first.replications[0].metrics)));
  const auto rewritten =
      runner.run_resumable<std::string>(seeds, body, store, encode_string, decode_string);
  EXPECT_EQ(runs.load(), 2u);
  EXPECT_EQ(rewritten.replications[0].payload, "rewritten");
  EXPECT_DOUBLE_EQ(rewritten.replications[0].wall_ms, 9.0);

  // (seed, index) must BOTH match: the same seeds in another order find
  // nothing, and both replications run again.
  const auto swapped = runner.run_resumable<std::string>(
      {8, 7}, body, store, encode_string, decode_string);
  EXPECT_EQ(swapped.resumed, 0u);
  EXPECT_EQ(runs.load(), 4u);
  EXPECT_EQ(swapped.replications[0].payload, binary);
}

TEST(ReplicationStoreTest, CorruptRecordsAreRerunNotThrown) {
  // Every record below is stored under its replication's key; none may be
  // replayed, and none may throw out of run_resumable.
  const std::string dir = temp_store_dir("corrupt");
  SnapshotStore store(dir);
  const auto seeds = ParallelRunner::seed_range(500, 7);
  MetricsRegistry m;
  m.count("ran");
  m.observe("lat", 0.5);
  const std::string good = encode_replication(1.0, encode_double(2.5), m);
  WireWriter bad_metrics;  // a summary reservoir past kReservoirCap
  bad_metrics.f64(1.0).bytes(encode_double(2.5)).u64(0).u64(0).u64(1).bytes("k")
      .u64(1).f64(1.0).f64(0.0).f64(1.0).f64(1.0).u64(1)
      .u64(Summary::kReservoirCap + 1);
  const std::string records[] = {
      good.substr(0, good.size() / 2),          // truncated record
      good + "1 ",                              // trailing token
      "3FF0000000000000 " + good.substr(17),    // uppercase wall_ms hex
      good.substr(0, 17) + "01" + good.substr(18),  // leading-zero length
      bad_metrics.take(),
  };
  for (std::size_t i = 0; i < std::size(records); ++i) {
    ASSERT_TRUE(store.put(replication_key(seeds[i], i), records[i]));
  }
  // A file the store itself rejects (checksum), and one cut short.
  const auto corrupt_file = [&](std::size_t i, const auto& edit) {
    ASSERT_TRUE(store.put(replication_key(seeds[i], i), good));
    const std::string path = dir + "/" + SnapshotStore::file_name(replication_key(seeds[i], i));
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    edit(all);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << all;
  };
  corrupt_file(5, [](std::string& f) { f[f.size() - 3] ^= 1; });
  corrupt_file(6, [](std::string& f) { f.resize(f.size() - 10); });

  std::atomic<std::size_t> reruns{0};
  const auto out = ParallelRunner(2).run_resumable<double>(
      seeds,
      [&reruns](ReplicationContext& ctx) {
        reruns.fetch_add(1, std::memory_order_relaxed);
        ctx.metrics.count("ran");
        return static_cast<double>(ctx.seed);
      },
      store, encode_double, decode_double);
  EXPECT_EQ(out.resumed, 0u);
  EXPECT_EQ(reruns.load(), seeds.size());
  EXPECT_EQ(out.failures, 0u);
  EXPECT_EQ(out.store_write_failures, 0u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.replications[i].payload, static_cast<double>(seeds[i]))
        << "record " << i;
  }
}

TEST(ParallelRunnerTest, ResumableSkipsJournaledWorkAndMatchesUninterrupted) {
  const std::string dir = temp_store_dir("resume");
  const auto seeds = ParallelRunner::seed_range(300, 10);

  const auto work = [](ReplicationContext& ctx) {
    Simulator s;
    Rng rng = ctx.make_rng();
    double acc = 0;
    for (int i = 0; i < 50; ++i) {
      s.schedule_in(Duration::micros(rng.uniform_int(1, 1000)),
                    [&acc, &rng] { acc += rng.uniform(); });
    }
    s.run();
    ctx.metrics.count("events", static_cast<double>(s.executed_count()));
    ctx.metrics.observe("acc", acc);
    return acc;
  };

  // Reference: plain uninterrupted run.
  const auto reference = ParallelRunner(2).run<double>(seeds, work);
  ASSERT_EQ(reference.failures, 0u);

  // First campaign: replications 6..9 die (simulated crash window); the
  // store captures only the 6 successes, written by two workers at once.
  {
    SnapshotStore store(dir);
    const auto partial = ParallelRunner(2).run_resumable<double>(
        seeds,
        [&work](ReplicationContext& ctx) {
          if (ctx.index >= 6) throw std::runtime_error("simulated crash");
          return work(ctx);
        },
        store, encode_double, decode_double);
    EXPECT_EQ(partial.failures, 4u);
    EXPECT_EQ(partial.resumed, 0u);
    EXPECT_EQ(store.file_count(), 6u);
  }

  // Second campaign, a fresh store object over the same directory: the six
  // stored replications are replayed without invoking the body, the four
  // missing ones run, and the outcome is bit-identical to the
  // uninterrupted reference.
  SnapshotStore store(dir);
  std::atomic<std::size_t> invocations{0};
  const auto resumed = ParallelRunner(2).run_resumable<double>(
      seeds,
      [&work, &invocations](ReplicationContext& ctx) {
        invocations.fetch_add(1, std::memory_order_relaxed);
        return work(ctx);
      },
      store, encode_double, decode_double);
  EXPECT_EQ(resumed.failures, 0u);
  EXPECT_EQ(resumed.resumed, 6u);
  EXPECT_EQ(invocations.load(), 4u);
  EXPECT_EQ(store.file_count(), 10u);
  EXPECT_EQ(resumed.merged.digest(), reference.merged.digest());
  ASSERT_EQ(resumed.replications.size(), reference.replications.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(bits_of(resumed.replications[i].payload),
              bits_of(reference.replications[i].payload))
        << "rep " << i;
  }

  // Third pass: everything stored, nothing runs.
  SnapshotStore store2(dir);
  std::atomic<std::size_t> third_invocations{0};
  const auto full = ParallelRunner(2).run_resumable<double>(
      seeds,
      [&third_invocations, &work](ReplicationContext& ctx) {
        third_invocations.fetch_add(1, std::memory_order_relaxed);
        return work(ctx);
      },
      store2, encode_double, decode_double);
  EXPECT_EQ(full.resumed, 10u);
  EXPECT_EQ(third_invocations.load(), 0u);
  EXPECT_EQ(full.merged.digest(), reference.merged.digest());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(bits_of(full.replications[i].payload),
              bits_of(reference.replications[i].payload))
        << "rep " << i;
  }
}

TEST(ParallelRunnerTest, UndecodablePayloadIsReRunNotFatal) {
  // The store is read back from disk, so a record whose payload the
  // caller's decoder rejects must be re-run, exactly like a record whose
  // metrics image fails to parse — never thrown out of run_resumable.
  SnapshotStore store(temp_store_dir("undecodable"));
  const auto seeds = ParallelRunner::seed_range(400, 2);
  MetricsRegistry m;
  m.count("ran");
  ASSERT_TRUE(store.put(replication_key(seeds[0], 0),
                        encode_replication(1.0, encode_double(2.5), m)));
  ASSERT_TRUE(store.put(replication_key(seeds[1], 1),
                        encode_replication(1.0, "not-a-number", m)));
  std::atomic<std::size_t> reruns{0};
  const auto out = ParallelRunner(2).run_resumable<double>(
      seeds,
      [&reruns](ReplicationContext& ctx) {
        EXPECT_EQ(ctx.index, 1u);
        reruns.fetch_add(1, std::memory_order_relaxed);
        ctx.metrics.count("ran");
        return static_cast<double>(ctx.seed);
      },
      store, encode_double, decode_double);
  EXPECT_EQ(reruns.load(), 1u);
  EXPECT_EQ(out.resumed, 1u);
  EXPECT_EQ(out.failures, 0u);
  EXPECT_DOUBLE_EQ(out.replications[0].payload, 2.5);
  const auto& r = out.replications[1];
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.payload, static_cast<double>(seeds[1]));
  // The re-run supersedes the bad record (last write wins).
  std::string record;
  ASSERT_EQ(store.get(replication_key(seeds[1], 1), record),
            SnapshotStore::GetStatus::kHit);
  EXPECT_EQ(record, encode_replication(r.wall_ms, encode_double(r.payload), r.metrics));
}

// --------------------------------------------------------- ScenarioMatrix ----

ScenarioMatrix small_matrix(std::uint64_t seed = 7) {
  ScenarioMatrix m(seed);
  m.add_axis("size", {"small", "large"});
  m.add_axis("mode", {"a", "b", "c"});
  m.add_axis("attack", {"off", "on"});
  return m;
}

TEST(ScenarioMatrixTest, MixedRadixDecodeCoversTheCrossProduct) {
  const ScenarioMatrix m = small_matrix();
  EXPECT_EQ(m.cell_count(), 12u);
  // Axis 0 is the slowest-moving digit: cell 0 = (0,0,0), cell 1 = (0,0,1),
  // cell 2 = (0,1,0), ..., cell 11 = (1,2,1).
  EXPECT_EQ(m.cell(0).choice, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(m.cell(1).choice, (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(m.cell(2).choice, (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(m.cell(11).choice, (std::vector<std::size_t>{1, 2, 1}));
  EXPECT_EQ(m.cell(3).name, "size=small/mode=b/attack=on");
  // Every choice combination appears exactly once.
  std::set<std::vector<std::size_t>> seen;
  for (const ScenarioCell& c : m.all_cells()) seen.insert(c.choice);
  EXPECT_EQ(seen.size(), m.cell_count());
}

TEST(ScenarioMatrixTest, CellSeedsAreUniqueAndStable) {
  const ScenarioMatrix m = small_matrix();
  std::set<std::uint64_t> seeds;
  for (const ScenarioCell& c : m.all_cells()) seeds.insert(c.seed);
  EXPECT_EQ(seeds.size(), m.cell_count());
  // Stable under re-enumeration and independent of access order.
  EXPECT_EQ(m.cell(5).seed, small_matrix().cell(5).seed);
  // A different base seed moves every cell seed.
  EXPECT_NE(m.cell(5).seed, small_matrix(8).cell(5).seed);
}

TEST(ScenarioMatrixTest, SliceIsDeterministicDistinctAndBounded) {
  const ScenarioMatrix m = small_matrix();
  const auto s1 = m.slice(5, /*salt=*/11);
  const auto s2 = m.slice(5, /*salt=*/11);
  ASSERT_EQ(s1.size(), 5u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].index, s2[i].index);
    EXPECT_EQ(s1[i].seed, s2[i].seed);
  }
  // Distinct cells within a slice.
  std::set<std::size_t> indices;
  for (const ScenarioCell& c : s1) indices.insert(c.index);
  EXPECT_EQ(indices.size(), s1.size());
  // A different salt walks a different subset (with 792 possible 5-subsets
  // a collision would be a red flag for the shuffle).
  const auto s3 = m.slice(5, /*salt=*/12);
  std::vector<std::size_t> i1, i3;
  for (const auto& c : s1) i1.push_back(c.index);
  for (const auto& c : s3) i3.push_back(c.index);
  EXPECT_NE(i1, i3);
  // Oversized requests clamp to the full matrix.
  EXPECT_EQ(m.slice(100, 0).size(), m.cell_count());
}

TEST(ScenarioMatrixTest, EmptyVariantListThrows) {
  ScenarioMatrix m(1);
  EXPECT_THROW(m.add_axis("broken", {}), std::invalid_argument);
}

}  // namespace
}  // namespace iobt::sim
