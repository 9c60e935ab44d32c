// ParallelRunner: seed-ordered aggregation, worker-count invariance,
// failure capture, campaign resume, and the metrics snapshot/merge path the
// runner's aggregation rides on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/runner.h"
#include "sim/scenario_matrix.h"
#include "sim/simulator.h"

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

// ------------------------------------------------- Campaign journal ----

namespace {

std::string temp_journal_path(const char* name) {
  return ::testing::TempDir() + "/iobt_journal_" + name + ".log";
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

}  // namespace

TEST(CampaignJournalTest, RoundTripEscapesAndLastWriteWins) {
  const std::string path = temp_journal_path("roundtrip");
  std::remove(path.c_str());
  {
    CampaignJournal j(path);
    MetricsRegistry m;
    m.count("c", 3);
    m.observe("lat", 0.25);
    // Payloads with every escaped character, plus a rewrite of (7, 0).
    j.append(JournalEntry{7, 0, 1.5, "tab\there\nand\rback\\slash", m.serialize()});
    j.append(JournalEntry{8, 1, 2.5, "plain", m.serialize()});
    j.append(JournalEntry{7, 0, 9.0, "rewritten", m.serialize()});
  }
  CampaignJournal reloaded(path);
  ASSERT_EQ(reloaded.entries().size(), 3u);
  const JournalEntry* e = reloaded.find(7, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->payload, "rewritten");  // last write wins
  EXPECT_DOUBLE_EQ(e->wall_ms, 9.0);
  const JournalEntry* first = reloaded.find(8, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->payload, "plain");
  ASSERT_EQ(reloaded.entries()[0].payload, "tab\there\nand\rback\\slash");
  // The metrics image survives bit-exactly.
  auto m2 = MetricsRegistry::deserialize(e->metrics);
  ASSERT_TRUE(m2.has_value());
  MetricsRegistry m;
  m.count("c", 3);
  m.observe("lat", 0.25);
  EXPECT_EQ(m2->digest(), m.digest());
  EXPECT_EQ(reloaded.find(7, 1), nullptr);  // (seed, index) must BOTH match
}

TEST(CampaignJournalTest, MalformedLinesAreSkippedOnLoad) {
  const std::string path = temp_journal_path("malformed");
  std::remove(path.c_str());
  {
    CampaignJournal j(path);
    MetricsRegistry m;
    m.count("ok");
    j.append(JournalEntry{1, 0, 1.0, "a", m.serialize()});
    j.append(JournalEntry{2, 1, 1.0, "b", m.serialize()});
  }
  {
    // Non-canonical seed/index tokens (sign, leading zero, overflow) are
    // foreign content too, then a crash-truncated write.
    std::ofstream f(path, std::ios::app);
    for (const char* ids : {"-3\t2", "+3\t2", "3\t02", "18446744073709551616\t2"}) {
      f << "rep\t" << ids << "\t1.0\tbad\t" << MetricsRegistry().serialize() << "\n";
    }
    f << "rep\t3\t2\t1.0\ttruncated-before-metr";  // no newline, short fields
  }
  CampaignJournal reloaded(path);
  EXPECT_EQ(reloaded.entries().size(), 2u);
  EXPECT_NE(reloaded.find(1, 0), nullptr);
  EXPECT_NE(reloaded.find(2, 1), nullptr);
  EXPECT_EQ(reloaded.find(3, 2), nullptr);
}

TEST(CampaignJournalTest, AppendAfterCrashTruncatedTailStartsFreshLine) {
  // Regression: a crash mid-write leaves a final line with no terminating
  // newline. The partial line's payload may itself contain ESCAPED
  // separators ("\\t" as backslash-t), so if the next append is glued onto
  // it the merged line is almost-parseable garbage — and the NEW valid
  // entry vanishes with it on the next load. The journal must detect the
  // unterminated tail on open and emit a separator before the first append.
  const std::string path = temp_journal_path("truncated_tail");
  std::remove(path.c_str());
  MetricsRegistry m;
  m.count("ok");
  {
    CampaignJournal j(path);
    j.append(JournalEntry{1, 0, 1.0, "intact", m.serialize()});
  }
  {
    // Crash-truncated tail whose payload field carries escaped separators
    // and which was cut before the metrics field.
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "rep\t9\t3\t2.0\tpay\\tload\\nwith\\tescapes";  // no trailing '\n'
  }
  {
    CampaignJournal reopened(path);
    EXPECT_EQ(reopened.entries().size(), 1u);  // truncated line skipped
    reopened.append(JournalEntry{2, 1, 4.0, "after-crash", m.serialize()});
  }
  CampaignJournal reloaded(path);
  ASSERT_EQ(reloaded.entries().size(), 2u);
  EXPECT_NE(reloaded.find(1, 0), nullptr);
  const JournalEntry* survivor = reloaded.find(2, 1);  // the entry at risk
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->payload, "after-crash");
  EXPECT_EQ(reloaded.find(9, 3), nullptr);  // the truncated entry stays lost
}

TEST(ParallelRunnerTest, ResumableSkipsJournaledWorkAndMatchesUninterrupted) {
  const std::string path = temp_journal_path("resume");
  std::remove(path.c_str());
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
  // journal captures only the 6 successes.
  {
    CampaignJournal journal(path);
    const auto partial = ParallelRunner(2).run_resumable<double>(
        seeds,
        [&work](ReplicationContext& ctx) {
          if (ctx.index >= 6) throw std::runtime_error("simulated crash");
          return work(ctx);
        },
        journal, encode_double, decode_double);
    EXPECT_EQ(partial.failures, 4u);
    EXPECT_EQ(partial.resumed, 0u);
    EXPECT_EQ(journal.entries().size(), 6u);
  }

  // Second campaign, fresh journal object over the same file: the six
  // journaled replications are replayed without invoking the body, the
  // four missing ones run, and the outcome is bit-identical to the
  // uninterrupted reference.
  CampaignJournal journal(path);
  std::atomic<std::size_t> invocations{0};
  const auto resumed = ParallelRunner(2).run_resumable<double>(
      seeds,
      [&work, &invocations](ReplicationContext& ctx) {
        invocations.fetch_add(1, std::memory_order_relaxed);
        return work(ctx);
      },
      journal, encode_double, decode_double);
  EXPECT_EQ(resumed.failures, 0u);
  EXPECT_EQ(resumed.resumed, 6u);
  EXPECT_EQ(invocations.load(), 4u);
  EXPECT_EQ(journal.entries().size(), 10u);
  EXPECT_EQ(resumed.merged.digest(), reference.merged.digest());
  ASSERT_EQ(resumed.replications.size(), reference.replications.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(bits_of(resumed.replications[i].payload),
              bits_of(reference.replications[i].payload))
        << "rep " << i;
  }

  // Third pass: everything journaled, nothing runs.
  CampaignJournal journal2(path);
  std::atomic<std::size_t> third_invocations{0};
  const auto full = ParallelRunner(2).run_resumable<double>(
      seeds,
      [&third_invocations, &work](ReplicationContext& ctx) {
        third_invocations.fetch_add(1, std::memory_order_relaxed);
        return work(ctx);
      },
      journal2, encode_double, decode_double);
  EXPECT_EQ(full.resumed, 10u);
  EXPECT_EQ(third_invocations.load(), 0u);
  EXPECT_EQ(full.merged.digest(), reference.merged.digest());
  std::remove(path.c_str());
}

TEST(ParallelRunnerTest, UndecodablePayloadIsReRunNotFatal) {
  // The journal is read back from disk, so an entry whose payload the
  // caller's decoder rejects must be re-run, exactly like an entry whose
  // metrics image fails to parse — never thrown out of run_resumable.
  const std::string path = temp_journal_path("undecodable");
  std::remove(path.c_str());
  const auto seeds = ParallelRunner::seed_range(400, 2);
  MetricsRegistry m;
  m.count("ran");
  {
    CampaignJournal j(path);
    j.append(JournalEntry{seeds[0], 0, 1.0, encode_double(2.5), m.serialize()});
    j.append(JournalEntry{seeds[1], 1, 1.0, "not-a-number", m.serialize()});
  }
  CampaignJournal journal(path);
  std::atomic<std::size_t> reruns{0};
  const auto out = ParallelRunner(2).run_resumable<double>(
      seeds,
      [&reruns](ReplicationContext& ctx) {
        EXPECT_EQ(ctx.index, 1u);
        reruns.fetch_add(1, std::memory_order_relaxed);
        ctx.metrics.count("ran");
        return static_cast<double>(ctx.seed);
      },
      journal, encode_double, decode_double);
  EXPECT_EQ(reruns.load(), 1u);
  EXPECT_EQ(out.resumed, 1u);
  EXPECT_EQ(out.failures, 0u);
  EXPECT_DOUBLE_EQ(out.replications[0].payload, 2.5);
  const auto& r = out.replications[1];
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.payload, static_cast<double>(seeds[1]));
  // The re-run supersedes the bad entry (last write wins).
  const JournalEntry* e = journal.find(seeds[1], 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->payload, encode_double(r.payload));
  std::remove(path.c_str());
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
