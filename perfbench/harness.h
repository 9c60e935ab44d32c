#pragma once
// Measurement helpers for the repo benchmark (driver.cpp), kept free of the
// iobt libraries so selftest.cpp can pin their rules in isolation:
//
//   - tail_quantile: the percentile rule. A tail percentile is reported only
//     when at least kMinBeyond samples lie beyond it; with fewer samples the
//     highest percentile that still has kMinBeyond beyond it is reported
//     instead, and the percentile actually used plus the sample count travel
//     with the value. per_pass_median applies it to each replay of a query
//     stream and takes the median.
//   - OpenLoopLog: arrival-to-answer accounting for an open-loop query
//     stream. Each query is stamped with the time it was DUE; latency runs
//     from that stamp to the return of the submit() that answered it, so a
//     stall also charges the queries that queued up behind it.
//   - GoldenBook / OpLedger: committed golden digests and the
//     attempted/failed tally that error_rate is computed from.
//   - MetricSet: named metrics with units, printed as a table and as the
//     benchmark's one-line JSON result.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- stats ----

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The benchmark's estimator across repetitions of identical,
/// deterministic work: the fastest repetition. On a shared VM, contention
/// from other tenants comes in episodes that last from seconds to minutes
/// and slow everything they overlap by up to half. A run's median moves
/// with how much of the run they overlap; the fastest repetition is the
/// least-disturbed measurement of the same work.
inline double fastest(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

/// `passes` holds one series of per-operation times per repetition of the
/// same deterministic operations. Returns each operation's fastest time
/// across the passes (operations beyond the shortest pass are dropped).
inline std::vector<double> per_op_fastest(const std::vector<std::vector<double>>& passes) {
  std::vector<double> out;
  if (passes.empty()) return out;
  std::size_t ops = passes.front().size();
  for (const auto& p : passes) ops = std::min(ops, p.size());
  for (std::size_t i = 0; i < ops; ++i) {
    double best = passes.front()[i];
    for (const auto& p : passes) best = std::min(best, p[i]);
    out.push_back(best);
  }
  return out;
}

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

struct TailStat {
  double value = 0.0;
  /// The percentile actually reported, in (0, 1]: `wanted` when enough
  /// samples exist, else the highest one with kMinBeyond samples beyond it.
  double percentile = 0.0;
  std::size_t samples = 0;
  /// Samples strictly beyond the reported rank.
  std::size_t beyond = 0;
  /// False when even the lowest usable rank lacks kMinBeyond samples beyond
  /// it (fewer than kMinBeyond + 1 samples): the value is then the median.
  bool resolved = false;
};

/// Nearest-rank percentile: rank = ceil(q * n) - 1 over the sorted samples,
/// capped so that at least kMinBeyond samples remain above the rank.
inline TailStat tail_quantile(std::vector<double> xs, double wanted) {
  TailStat t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const double raw = std::ceil(wanted * static_cast<double>(n)) - 1.0;
  std::size_t rank = static_cast<std::size_t>(std::max(0.0, raw));
  rank = std::min(rank, n - 1);
  if (n > kMinBeyond) {
    rank = std::min(rank, n - 1 - kMinBeyond);
    t.resolved = true;
  } else {
    rank = (n - 1) / 2;
  }
  t.value = xs[rank];
  t.beyond = n - 1 - rank;
  t.percentile = static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

/// `passes` holds one latency series per replay of the same query stream.
/// Applies the percentile rule to each pass on its own and returns the
/// median of the per-pass values, with the rule's outcome for the pass whose
/// value that is (passes of one stream have equal sample counts). Each value
/// is a percentile some pass really produced. A stall the program causes
/// recurs in every replay and moves the result; host contention that hits a
/// minority of the passes does not.
inline TailStat per_pass_median(const std::vector<std::vector<double>>& passes,
                                double wanted) {
  std::vector<TailStat> stats;
  for (const auto& p : passes) stats.push_back(tail_quantile(p, wanted));
  if (stats.empty()) return {};
  std::sort(stats.begin(), stats.end(),
            [](const TailStat& a, const TailStat& b) { return a.value < b.value; });
  TailStat t = stats[(stats.size() - 1) / 2];
  if (stats.size() % 2 == 0) t.value = 0.5 * (t.value + stats[stats.size() / 2].value);
  return t;
}

// ------------------------------------------------------- open-loop stream ---

/// Host-clock stamps of one query of an open-loop stream, in ms since the
/// stream started.
struct QueryStamp {
  double due_ms = 0.0;     ///< when the schedule said it arrives
  double submit_ms = 0.0;  ///< when the generator handed it to submit()
  double answer_ms = 0.0;  ///< when that submit() returned
  double service_ms = 0.0; ///< the service's own QueryResult::latency_ms
};

class OpenLoopLog {
 public:
  void add(const QueryStamp& s) { stamps_.push_back(s); }
  std::size_t size() const { return stamps_.size(); }

  /// Arrival-to-answer latency per query: answer - due.
  std::vector<double> latency_ms() const {
    std::vector<double> out;
    for (const QueryStamp& s : stamps_) out.push_back(s.answer_ms - s.due_ms);
    return out;
  }
  /// What the service does not account for: arrival-to-answer minus the
  /// service's own per-query time (queueing behind earlier batches, waiting
  /// for the batch's slowest branch, generator lateness).
  std::vector<double> wait_ms() const {
    std::vector<double> out;
    for (const QueryStamp& s : stamps_) {
      out.push_back(s.answer_ms - s.due_ms - s.service_ms);
    }
    return out;
  }
  std::vector<double> service_ms() const {
    std::vector<double> out;
    for (const QueryStamp& s : stamps_) out.push_back(s.service_ms);
    return out;
  }
  /// How late the generator handed each query over, worst case.
  double max_gen_lag_ms() const {
    double m = 0.0;
    for (const QueryStamp& s : stamps_) m = std::max(m, s.submit_ms - s.due_ms);
    return m;
  }
  /// True when the second half of the stream waited clearly longer than
  /// the first (median lag more than doubled and above `floor_ms`): the
  /// offered rate exceeds what the service sustains.
  bool backlog_growing(double floor_ms) const {
    const std::size_t n = stamps_.size();
    if (n < 4) return false;
    std::vector<double> first, second;
    for (std::size_t i = 0; i < n; ++i) {
      const double lag = stamps_[i].submit_ms - stamps_[i].due_ms;
      (i < n / 2 ? first : second).push_back(lag);
    }
    const double a = median(first), b = median(second);
    return b > floor_ms && b > 2.0 * a;
  }

 private:
  std::vector<QueryStamp> stamps_;
};

// ------------------------------------------------------ golden + ledger ----

/// Committed golden digests: one `<variant> <id> <value>` line per checked
/// output, '#' comments allowed. Values are compared as exact strings.
class GoldenBook {
 public:
  bool load(const std::string& path) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::size_t variant = 0;
      std::string id, value;
      if (!(ls >> variant >> id >> value)) return false;
      entries_[{variant, id}] = value;
      variants_ = std::max(variants_, variant + 1);
    }
    return !entries_.empty();
  }
  void set(std::size_t variant, const std::string& id, std::string value) {
    entries_[{variant, id}] = std::move(value);
    variants_ = std::max(variants_, variant + 1);
  }
  /// Number of variants the book covers (highest variant + 1).
  std::size_t variants() const { return variants_; }
  /// True iff an entry exists and equals `value`.
  bool matches(std::size_t variant, const std::string& id,
               const std::string& value) const {
    auto it = entries_.find({variant, id});
    return it != entries_.end() && it->second == value;
  }
  /// Flips one character of one entry, so a run over it must report a
  /// mismatch (the benchmark's --corrupt-golden self-check).
  void corrupt(std::size_t variant, const std::string& id) {
    auto it = entries_.find({variant, id});
    if (it == entries_.end() || it->second.empty()) return;
    char& c = it->second.back();
    c = c == '0' ? '1' : '0';
  }

 private:
  std::map<std::pair<std::size_t, std::string>, std::string> entries_;
  std::size_t variants_ = 0;
};

/// Operations attempted and failed. A failed operation is one that threw,
/// was rejected, or whose digest differs from the golden digest.
class OpLedger {
 public:
  void record(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (first_failure_.empty()) first_failure_ = what;
    }
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::string& first_failure() const { return first_failure_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string first_failure_;
};

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -------------------------------------------------------------- metrics ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed in the table only
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }

  void print_table(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-24s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                   m.unit.c_str(), m.note.c_str());
    }
  }

  /// The benchmark's result line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}. Values keep all their digits.
  std::string json(bool correct, std::size_t attempted, std::size_t failed) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      os << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
         << buf << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set (VmHWM) of this process in MiB; 0 if unavailable.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
