// Self-tests of the benchmark's measurement rules (harness.h): the tail
// percentile rule, the fastest-pass and per-pass-median estimators, open-loop
// arrival-to-answer accounting, and that a golden digest mismatch raises
// error_rate. run.py runs this binary after
// every build and refuses to report numbers if it fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("selftest FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  // Reverse order: the rule must sort its input.
  for (std::size_t i = n; i > 0; --i) xs.push_back(static_cast<double>(i - 1));
  return xs;
}

void percentile_rule() {
  using perfbench::tail_quantile;
  // Enough samples: p99 of 2000 is rank 1979, with 20 samples beyond it.
  auto t = tail_quantile(ramp(2000), 0.99);
  CHECK(t.resolved);
  CHECK(near(t.value, 1979.0));
  CHECK(near(t.percentile, 0.99));
  CHECK(t.beyond == 20);
  CHECK(t.samples == 2000);
  // Exactly the threshold: 1000 samples leave exactly 10 beyond p99.
  t = tail_quantile(ramp(1000), 0.99);
  CHECK(near(t.value, 989.0));
  CHECK(t.beyond == 10);
  CHECK(near(t.percentile, 0.99));
  // Too few for p99: fall back to the highest rank with 10 beyond (p90).
  t = tail_quantile(ramp(100), 0.99);
  CHECK(t.resolved);
  CHECK(near(t.value, 89.0));
  CHECK(t.beyond == 10);
  CHECK(near(t.percentile, 0.90));
  // The cap never raises a low percentile.
  t = tail_quantile(ramp(100), 0.5);
  CHECK(near(t.value, 49.0));
  CHECK(t.beyond == 50);
  // Fewer than 11 samples cannot resolve any tail: the median is shown.
  t = tail_quantile(ramp(5), 0.99);
  CHECK(!t.resolved);
  CHECK(near(t.value, 2.0));
  t = tail_quantile({}, 0.99);
  CHECK(t.samples == 0 && !t.resolved);
}

void fastest_across_passes() {
  CHECK(near(perfbench::fastest({3.0, 1.5, 2.0}), 1.5));
  CHECK(near(perfbench::fastest({}), 0.0));
  // Each operation keeps its own fastest pass; operations beyond the
  // shortest pass are dropped.
  const std::vector<double> op =
      perfbench::per_op_fastest({{5.0, 1.0, 9.0}, {4.0, 2.0}, {6.0, 0.5, 1.0}});
  CHECK(op.size() == 2);
  CHECK(near(op[0], 4.0));
  CHECK(near(op[1], 0.5));
}

void per_pass_median_rule() {
  // Six replays of a 400-query stream: p99 cannot resolve per pass, so each
  // pass reports p97.5 (rank 389, 10 beyond), and the median is taken.
  std::vector<std::vector<double>> passes(6, ramp(400));
  auto t = perfbench::per_pass_median(passes, 0.99);
  CHECK(t.resolved);
  CHECK(t.samples == 400 && t.beyond == 10);
  CHECK(near(t.percentile, 0.975));
  CHECK(near(t.value, 389.0));
  // A stall in two of six passes (host contention) leaves it unchanged.
  for (int k = 0; k < 2; ++k) {
    for (double& x : passes[k]) x += 1000.0;
  }
  CHECK(near(perfbench::per_pass_median(passes, 0.99).value, 389.0));
  // A stall in every pass (the program's own) that delays 20 queued
  // queries moves it.
  for (auto& p : passes) {
    for (int i = 0; i < 20; ++i) p[i] += 5000.0;
  }
  CHECK(perfbench::per_pass_median(passes, 0.99).value > 389.0);
  // An even count averages the middle two.
  CHECK(near(perfbench::per_pass_median({{1.0}, {3.0}}, 0.5).value, 2.0));
  CHECK(perfbench::per_pass_median({}, 0.99).samples == 0);
}

void open_loop_accounting() {
  // Four queries due every 10 ms. The first batch (q0) stalls for 35 ms, so
  // q1..q3 queue behind it and are submitted together at 35 ms.
  perfbench::OpenLoopLog log;
  log.add({0.0, 0.0, 35.0, 35.0});
  log.add({10.0, 35.0, 40.0, 5.0});
  log.add({20.0, 35.0, 40.0, 5.0});
  log.add({30.0, 35.0, 40.0, 5.0});
  const std::vector<double> lat = log.latency_ms();
  // Latency runs from the due time, not from submission: the stall is
  // charged to every query that waited behind it.
  CHECK(near(lat[0], 35.0));
  CHECK(near(lat[1], 30.0));
  CHECK(near(lat[2], 20.0));
  CHECK(near(lat[3], 10.0));
  const std::vector<double> wait = log.wait_ms();
  CHECK(near(wait[0], 0.0));
  CHECK(near(wait[1], 25.0));
  CHECK(near(log.max_gen_lag_ms(), 25.0));

  // A stream whose generator falls further behind every query is a growing
  // backlog; one with a constant small lag is not.
  perfbench::OpenLoopLog growing, steady;
  for (int i = 0; i < 100; ++i) {
    const double due = 10.0 * i;
    growing.add({due, due + 2.0 * i, due + 2.0 * i + 5.0, 5.0});
    steady.add({due, due + 1.0, due + 6.0, 5.0});
  }
  CHECK(growing.backlog_growing(20.0));
  CHECK(!steady.backlog_growing(20.0));
}

void golden_mismatch_raises_error_rate() {
  perfbench::GoldenBook book;
  book.set(0, "a", "00000000000000aa");
  book.set(0, "b", "00000000000000bb");
  book.set(1, "a", "00000000000001aa");
  CHECK(book.variants() == 2);

  perfbench::OpLedger clean;
  clean.record(book.matches(0, "a", "00000000000000aa"), "a");
  clean.record(book.matches(0, "b", "00000000000000bb"), "b");
  CHECK(clean.attempted() == 2 && clean.failed() == 0);
  CHECK(near(clean.error_rate(), 0.0));

  // A corrupted golden entry must turn the same outputs into a failure.
  book.corrupt(0, "b");
  perfbench::OpLedger dirty;
  dirty.record(book.matches(0, "a", "00000000000000aa"), "a");
  dirty.record(book.matches(0, "b", "00000000000000bb"), "b");
  CHECK(dirty.failed() == 1);
  CHECK(near(dirty.error_rate(), 0.5));
  CHECK(dirty.first_failure() == "b");
  // A missing entry is a mismatch, never a pass.
  CHECK(!book.matches(3, "a", "00000000000000aa"));
}

void result_line() {
  perfbench::MetricSet m;
  m.add("wall_s", 0.123456789012345678, "s");
  m.add("bad", std::nan(""), "ms");
  const std::string j = m.json(true, 7, 0);
  CHECK(j.find("\"correct\": true") != std::string::npos);
  CHECK(j.find("\"attempted\": 7") != std::string::npos);
  CHECK(j.find("\"failed\": 0") != std::string::npos);
  CHECK(j.find("\"wall_s\": {\"value\": 0.12345678901234568, \"unit\": \"s\"}") !=
        std::string::npos);
  CHECK(j.find("\"bad\": {\"value\": 0,") != std::string::npos);
}

}  // namespace

int main() {
  percentile_rule();
  fastest_across_passes();
  per_pass_median_rule();
  open_loop_accounting();
  golden_mismatch_raises_error_rate();
  result_line();
  std::printf("perfbench selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
