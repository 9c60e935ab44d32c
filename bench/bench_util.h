#pragma once
// Shared helpers for the experiment harnesses: aligned table printing and
// wall-clock timing. Every bench prints the series its experiment id in
// DESIGN.md §3 calls for; EXPERIMENTS.md records the expected shapes.

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/runner.h"
#include "sim/simulator.h"
#include "trace/json.h"
#include "trace/trace.h"

namespace iobt::bench {

/// Worker-pool size for replication sweeps: hardware concurrency clamped to
/// [1, 8]. The pool size never affects bench OUTPUT (ParallelRunner
/// aggregates in seed order), only wall time.
inline std::size_t bench_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(8, hw);
}

/// "0.912±0.013" cell for a replication sweep's RunOutcome::stats().
inline std::string pm(const iobt::sim::Summary& s, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f±%.*f", prec, s.mean(), prec, s.stddev());
  return std::string(buf);
}

inline void header(const std::string& experiment, const std::string& claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
}

/// printf-style row helper so harness code reads like the table it emits.
inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Writes the artifact `path` ("BENCH_<name>.json") as one JSON object:
/// "bench": "bench_<name>" first, then the fields `fields(writer)` adds.
/// Prints "wrote <path>" if the file could be opened.
template <class Fields>
void write_artifact(std::string_view path, Fields&& fields) {
  std::ofstream os{std::string(path)};
  if (!os) return;
  std::string_view name = path.substr(6);   // after "BENCH_"
  name.remove_suffix(5);                    // ".json"
  trace::JsonWriter w(os);
  w.begin_object().key("bench").string("bench_" + std::string(name));
  fields(w);
  w.end_object();
  row("");
  row("wrote %.*s", static_cast<int>(path.size()), path.data());
}

/// Command-line options shared by the harnesses. `--trace=<file>` (or
/// `--trace <file>`) records the bench's instrumented run and writes
/// Chrome trace-event JSON there — open it in https://ui.perfetto.dev or
/// chrome://tracing. Unknown arguments are ignored so harness-specific
/// flags can coexist.
struct BenchArgs {
  std::string trace_path;  // empty = tracing off
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      out.trace_path = std::string(arg.substr(8));
    } else if (arg == "--trace" && i + 1 < argc) {
      out.trace_path = argv[++i];
    }
  }
  return out;
}

/// RAII trace capture around one instrumented run: enables the given
/// simulator's tracer, installs it as the calling thread's ambient tracer
/// (so harness-thread spans — e.g. mission synthesis — join the timeline),
/// and on destruction writes the JSON file plus a one-line summary. An
/// empty path makes the session inert, which is how benches run untraced.
class TraceSession {
 public:
  explicit TraceSession(iobt::sim::Simulator& sim, std::string path,
                        std::size_t capacity = 1u << 20)
      : path_(std::move(path)) {
    if (path_.empty()) return;
    tracer_ = &sim.tracer();
    tracer_->enable(capacity);
    use_.emplace(tracer_);
  }
  ~TraceSession() {
    if (!tracer_) return;
    use_.reset();
    tracer_->disable();
    std::ofstream os(path_);
    tracer_->write_json(os);
    std::printf("trace: wrote %zu records (%llu overwritten) to %s\n",
                tracer_->size(), static_cast<unsigned long long>(tracer_->dropped()),
                path_.c_str());
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
  iobt::trace::Tracer* tracer_ = nullptr;
  std::optional<iobt::trace::ScopedUse> use_;
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace iobt::bench
