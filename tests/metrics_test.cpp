// MetricsRegistry and Summary: accumulation semantics, key creation on
// first touch, quantiles, and the snapshot/merge/digest path that
// ParallelRunner's seed-ordered aggregation depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/wire.h"

namespace iobt::sim {
namespace {

// -------------------------------------------------------------- Summary ----

TEST(SummaryTest, WelfordMatchesDirectComputation) {
  // A mixed-sign stream, an ascending one (min and max at the ends), and a
  // single sample, whose sample stddev is 0 and whose min equals its max.
  const std::vector<std::vector<double>> inputs = {
      {1.5, -2.0, 4.25, 0.0, 3.5, -1.25}, {1.0, 2.0, 3.0, 4.0}, {7.5}};
  for (const std::vector<double>& xs : inputs) {
    SCOPED_TRACE(xs.size());
    Summary s;
    double sum = 0;
    for (double x : xs) {
      s.add(x);
      sum += x;
    }
    const double n = static_cast<double>(xs.size());
    const double mean = sum / n;
    double m2 = 0;
    for (double x : xs) m2 += (x - mean) * (x - mean);
    EXPECT_EQ(s.count(), xs.size());
    EXPECT_NEAR(s.mean(), mean, 1e-12);
    EXPECT_NEAR(s.variance(), xs.size() > 1 ? m2 / (n - 1) : 0.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(s.variance()), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(s.max(), *std::max_element(xs.begin(), xs.end()));
    EXPECT_NEAR(s.sum(), sum, 1e-12);
  }
}

TEST(SummaryTest, EmptySummaryReportsZeros) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(SummaryTest, QuantilesExactUnderReservoirCap) {
  Summary s;
  for (int i = 100; i >= 1; --i) s.add(static_cast<double>(i));  // 1..100
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
}

TEST(SummaryTest, MergeMatchesConcatenatedStream) {
  Summary a, b, direct;
  for (int i = 0; i < 40; ++i) {
    const double x = 0.37 * i - 3.0;
    a.add(x);
    direct.add(x);
  }
  for (int i = 0; i < 25; ++i) {
    const double x = -0.11 * i + 8.0;
    b.add(x);
    direct.add(x);
  }
  Summary merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_NEAR(merged.mean(), direct.mean(), 1e-10);
  EXPECT_NEAR(merged.variance(), direct.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), direct.min());
  EXPECT_DOUBLE_EQ(merged.max(), direct.max());
  // Under the reservoir cap the merged reservoir replays b's samples in
  // order, so quantiles are exactly the concatenated-stream quantiles.
  EXPECT_DOUBLE_EQ(merged.median(), direct.median());
  EXPECT_DOUBLE_EQ(merged.quantile(0.25), direct.quantile(0.25));
}

TEST(SummaryTest, MergeWithEmptySides) {
  Summary a;
  a.add(2.0);
  a.add(4.0);
  Summary empty;
  Summary m1 = a;
  m1.merge(empty);  // no-op
  EXPECT_EQ(m1.count(), 2u);
  EXPECT_DOUBLE_EQ(m1.mean(), 3.0);
  Summary m2 = empty;
  m2.merge(a);  // adopt
  EXPECT_EQ(m2.count(), 2u);
  EXPECT_DOUBLE_EQ(m2.mean(), 3.0);
  EXPECT_DOUBLE_EQ(m2.min(), 2.0);
  EXPECT_DOUBLE_EQ(m2.max(), 4.0);
}

TEST(SummaryTest, MergeIsDeterministicGivenOrder) {
  auto build = [](std::uint64_t lo, std::uint64_t n) {
    Summary s;
    for (std::uint64_t i = 0; i < n; ++i) {
      s.add(static_cast<double>(lo + i) * 1.7);
    }
    return s;
  };
  Summary m1 = build(0, 30);
  m1.merge(build(100, 20));
  Summary m2 = build(0, 30);
  m2.merge(build(100, 20));
  std::uint64_t h1 = 0, h2 = 0;
  m1.hash_into(h1);
  m2.hash_into(h2);
  EXPECT_EQ(h1, h2);
}

// ------------------------------------------------------ MetricsRegistry ----

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry m;
  m.count("events");
  m.count("events", 2.5);
  EXPECT_DOUBLE_EQ(m.counter("events"), 3.5);
}

TEST(MetricsRegistryTest, LookupOfMissingKeysReturnsZeroWithoutCreating) {
  MetricsRegistry m;
  EXPECT_DOUBLE_EQ(m.counter("never"), 0.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("never"), 0.0);
  EXPECT_EQ(m.summary("never"), nullptr);
  EXPECT_TRUE(m.counters().empty());
  EXPECT_TRUE(m.gauges().empty());
  EXPECT_TRUE(m.summaries().empty());
}

TEST(MetricsRegistryTest, KeysCreatedOnFirstTouch) {
  MetricsRegistry m;
  m.count("c");
  m.gauge("g", 1.25);
  m.observe("s", 9.0);
  EXPECT_EQ(m.counters().size(), 1u);
  EXPECT_EQ(m.gauges().size(), 1u);
  ASSERT_NE(m.summary("s"), nullptr);
  EXPECT_EQ(m.summary("s")->count(), 1u);
}

TEST(MetricsRegistryTest, GaugeKeepsLatestValue) {
  MetricsRegistry m;
  m.gauge("battery", 0.9);
  m.gauge("battery", 0.4);
  EXPECT_DOUBLE_EQ(m.gauge_value("battery"), 0.4);
}

TEST(MetricsRegistryTest, DurationObserveConvertsToSeconds) {
  MetricsRegistry m;
  m.observe("latency", Duration::millis(250));
  ASSERT_NE(m.summary("latency"), nullptr);
  EXPECT_NEAR(m.summary("latency")->mean(), 0.25, 1e-12);
}

TEST(MetricsRegistryTest, ClearResetsEverything) {
  MetricsRegistry m;
  m.count("c");
  m.gauge("g", 1);
  m.observe("s", 1);
  m.clear();
  EXPECT_TRUE(m.counters().empty());
  EXPECT_TRUE(m.gauges().empty());
  EXPECT_TRUE(m.summaries().empty());
}

TEST(MetricsRegistryTest, MergeFromCombinesAllThreeKinds) {
  MetricsRegistry a, b;
  a.count("shared", 2);
  a.count("only_a", 1);
  a.gauge("g", 1.0);
  a.observe("lat", 1.0);
  b.count("shared", 3);
  b.count("only_b", 4);
  b.gauge("g", 7.0);
  b.observe("lat", 3.0);
  b.observe("other", 5.0);

  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.counter("shared"), 5.0);
  EXPECT_DOUBLE_EQ(a.counter("only_a"), 1.0);
  EXPECT_DOUBLE_EQ(a.counter("only_b"), 4.0);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 7.0);  // last merge wins
  ASSERT_NE(a.summary("lat"), nullptr);
  EXPECT_EQ(a.summary("lat")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.summary("lat")->mean(), 2.0);
  ASSERT_NE(a.summary("other"), nullptr);
  EXPECT_EQ(a.summary("other")->count(), 1u);
}

TEST(MetricsRegistryTest, MergeFromEmptyIsIdentity) {
  MetricsRegistry a;
  a.count("c", 2);
  a.observe("s", 1.5);
  const std::uint64_t before = a.digest();
  a.merge_from(MetricsRegistry{});
  EXPECT_EQ(a.digest(), before);
}

TEST(MetricsRegistryTest, DigestDistinguishesContent) {
  MetricsRegistry a, b;
  EXPECT_EQ(a.digest(), b.digest());  // both empty
  a.count("c");
  EXPECT_NE(a.digest(), b.digest());
  b.count("c");
  EXPECT_EQ(a.digest(), b.digest());
  a.observe("s", 1.0);
  b.observe("s", 1.0 + 1e-15);  // different bits -> different digest
  EXPECT_NE(a.digest(), b.digest());
}

TEST(MetricsRegistryTest, DigestCoversKeyNames) {
  MetricsRegistry a, b;
  a.count("x", 1.0);
  b.count("y", 1.0);
  EXPECT_NE(a.digest(), b.digest());
}

// -------------------------------------------------------- Serialization ----

/// save() as one standalone image.
std::string image_of(const MetricsRegistry& m) {
  WireWriter w;
  m.save(w);
  return w.take();
}

/// restore() of one standalone image: nullopt unless it reads to its last
/// byte.
std::optional<MetricsRegistry> read_image(std::string_view image) {
  WireReader r(image);
  MetricsRegistry m;
  if (!m.restore(r) || !r.at_end()) return std::nullopt;
  return m;
}

TEST(MetricsRegistryTest, SerializeRoundTripIsBitExact) {
  MetricsRegistry m;
  m.count("frames.delivered", 12345);
  m.count("tiny", 1e-300);
  m.count("neg.zero", -0.0);
  m.gauge("battery.v", 3.3000000000000003);
  m.gauge("nan.gauge", std::nan(""));
  m.gauge("inf.gauge", std::numeric_limits<double>::infinity());
  m.observe("lat", 0.25);
  m.observe("lat", -1e308);
  m.observe("lat", std::numeric_limits<double>::denorm_min());
  // Overflow the reservoir so the replacement stream state round-trips too.
  for (std::size_t i = 0; i < Summary::kReservoirCap + 500; ++i) {
    m.observe("big", static_cast<double>(i) * 1.0000001);
  }
  const std::string image = image_of(m);
  auto back = read_image(image);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->digest(), m.digest());
  // Re-serializing before any further mutation is byte-stable.
  EXPECT_EQ(image_of(*back), image);
  // The round trip also continues identically: observing the same sample
  // on both sides keeps the reservoir streams in lockstep.
  m.observe("big", 9.75);
  back->observe("big", 9.75);
  EXPECT_EQ(back->digest(), m.digest());
}

TEST(MetricsRegistryTest, SerializeEmptyRegistryRoundTrips) {
  MetricsRegistry m;
  auto back = read_image(image_of(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->digest(), m.digest());
}

TEST(MetricsRegistryTest, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(read_image("").has_value());
  EXPECT_FALSE(read_image("bogus").has_value());
  EXPECT_FALSE(read_image("m2\n").has_value());  // version
  MetricsRegistry m;
  m.count("c", 2);
  m.observe("s", 1.0);
  const std::string image = image_of(m);
  // Truncation anywhere must be caught, not silently accepted.
  for (const std::size_t cut : {image.size() / 4, image.size() / 2, image.size() - 1}) {
    EXPECT_FALSE(read_image(image.substr(0, cut)).has_value())
        << "cut at " << cut;
  }
  // Trailing garbage as well.
  EXPECT_FALSE(read_image(image + "extra").has_value());
}

TEST(MetricsRegistryTest, DeserializeRejectsSummaryStateNoRunReaches) {
  // An honest summary holds min(seen, kReservoirCap) samples and a sample
  // counter far from 2^64. A full reservoir whose counter is 2^64 - 1 once
  // restored, and the next observe wrapped the counter to 0 and took a
  // replacement index % 0 (SIGFPE).
  MetricsRegistry m;
  const std::uint64_t seen = Summary::kReservoirCap + 100;
  for (std::uint64_t i = 0; i < seen; ++i) m.observe("big", static_cast<double>(i));
  m.observe("few", 1.0);
  m.observe("few", 2.0);
  const std::string image = image_of(m);
  // The summaries' (seen, reservoir size) token pairs, each unique here.
  const auto with = [&image](const std::string& from, const std::string& to) {
    const std::size_t at = image.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    EXPECT_EQ(image.find(from, at + 1), std::string::npos) << from;
    return image.substr(0, at) + to + image.substr(at + from.size());
  };
  const std::string full = " " + std::to_string(seen) + " 4096 ";
  const auto full_with_seen = [&](std::uint64_t v) {
    return with(full, " " + std::to_string(v) + " 4096 ");
  };
  ASSERT_TRUE(read_image(image).has_value());
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t bad : {kMax, kMax - 1, Summary::kMaxSeen, std::uint64_t{4095},
                                  std::uint64_t{0}}) {
    EXPECT_FALSE(read_image(full_with_seen(bad)).has_value()) << "seen " << bad;
  }
  EXPECT_FALSE(read_image(with(" 2 2 ", " 3 2 ")).has_value());
  EXPECT_FALSE(read_image(with(" 2 2 ", " 1 2 ")).has_value());
  // The largest counter accepted still takes a merge and a sample.
  auto edge = read_image(full_with_seen(Summary::kMaxSeen - 1));
  ASSERT_TRUE(edge.has_value());
  MetricsRegistry copy = *edge;
  copy.merge_from(*edge);
  edge->observe("big", 1.0);
  EXPECT_EQ(edge->summary("big")->count(), seen + 1);
}

TEST(MetricsRegistryTest, SerializeRejectsUnescapableKeys) {
  MetricsRegistry with_ws;
  with_ws.count("bad key");
  EXPECT_THROW(image_of(with_ws), std::logic_error);
  MetricsRegistry with_semi;
  with_semi.gauge("bad;key", 1.0);
  EXPECT_THROW(image_of(with_semi), std::logic_error);
}

}  // namespace
}  // namespace iobt::sim
