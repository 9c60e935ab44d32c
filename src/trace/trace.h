#pragma once
// Structured tracing: the self-observation substrate the paper's adaptive,
// self-aware IoBT (Fig. 3) presumes — reflex latency, synthesis assembly
// time, frame drops, all inspectable as a timeline, not just as
// end-of-run metric summaries.
//
// Design:
//  * Always compiled, zero overhead when disabled. Every record path is a
//    single `enabled_` branch when tracing is off — no clock reads, no
//    allocation, no ring writes. The ring buffer is allocated by enable()
//    and never grows afterwards, so the enabled record path is
//    allocation-free too.
//  * Per-simulator. A Tracer is single-threaded by design, like the
//    Simulator it observes: each Simulator owns exactly one, so
//    replications on different worker threads never share one.
//  * Dual clocks. Every record carries virtual sim-time (from the bound
//    Simulator clock) and wall-time (steady_clock, relative to enable()).
//    Handlers execute at a frozen sim-time, so scoped spans get their
//    visual extent from the wall clock; the sim timestamp rides along in
//    the exported args for correlation.
//  * Bounded. Records live in a fixed-capacity ring; when full, the oldest
//    records are overwritten and counted in dropped(). A trace is the
//    recent window of a run, never an unbounded log.
//  * Chrome trace-event export. write_json() emits the JSON array format
//    that Perfetto (https://ui.perfetto.dev) and chrome://tracing load
//    directly: "X" complete spans, "i" instants, "C" counters, and "b"/"e"
//    async spans for intervals that outlive any C++ scope (an in-flight
//    network frame).
//
// Names are interned once into dense NameIds (mirroring sim::TagTable), so
// hot paths never hash or copy strings; each name carries a category
// ("sim", "net", "synthesis", "adapt", ...) that becomes the trace event's
// "cat" field — the per-subsystem filter axis in the Perfetto UI.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace iobt::trace {

/// Interned record-name id. 0 is reserved (the empty name).
using NameId = std::uint32_t;

/// Chrome trace-event phase of a record.
enum class Phase : std::uint8_t {
  kComplete,    // "X": scoped span with duration (RAII Span)
  kInstant,     // "i": point event
  kCounter,     // "C": sampled counter value
  kAsyncBegin,  // "b": start of an id-keyed interval
  kAsyncEnd,    // "e": end of an id-keyed interval
};

/// One ring-buffer entry. POD: recording is a bounds-checked array write.
struct Record {
  std::uint64_t seq = 0;          // global record sequence, monotone
  std::int64_t sim_ns = 0;        // virtual time at record (span begin)
  std::int64_t wall_ns = 0;       // wall time since enable() (span begin)
  std::int64_t sim_dur_ns = 0;    // kComplete only
  std::int64_t wall_dur_ns = 0;   // kComplete only
  double value = 0.0;             // kCounter only
  std::uint64_t async_id = 0;     // kAsyncBegin / kAsyncEnd only
  NameId name = 0;
  Phase phase = Phase::kInstant;
  std::uint16_t depth = 0;        // span nesting depth at record time
};

class Span;

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- Setup (cold; may allocate) ----------------------------------------

  /// Interns `name` under `category`, returning its dense id. Intern once
  /// at construction/start(), record many. Re-interning the same name
  /// returns the same id (the first category sticks).
  NameId intern(std::string_view name, std::string_view category = "");

  const std::string& name(NameId id) const;
  const std::string& category(NameId id) const;

  /// Allocates (or re-uses) the ring at `capacity` records, clears it, and
  /// starts recording. Wall timestamps are relative to this call.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stops recording. Already-captured records stay readable/exportable.
  void disable();
  bool enabled() const { return enabled_; }

  /// Binds the virtual clock records sample. The Simulator binds its own
  /// clock on construction / attach; pass nullptr to unbind (sim_ns = 0).
  void bind_sim_clock(const sim::SimTime* now) { sim_clock_ = now; }

  // --- Record paths (hot; one branch when disabled, no allocation ever) --

  void instant(NameId name) {
    if (enabled_) record(Phase::kInstant, name, 0.0, 0);
  }
  void counter(NameId name, double value) {
    if (enabled_) record(Phase::kCounter, name, value, 0);
  }
  void async_begin(NameId name, std::uint64_t id) {
    if (enabled_) record(Phase::kAsyncBegin, name, 0.0, id);
  }
  void async_end(NameId name, std::uint64_t id) {
    if (enabled_) record(Phase::kAsyncEnd, name, 0.0, id);
  }

  // --- Introspection / export --------------------------------------------

  /// Records currently held (<= capacity).
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Oldest records overwritten since enable().
  std::uint64_t dropped() const { return dropped_; }
  /// Total records ever written since enable() (== size + dropped).
  std::uint64_t total_recorded() const { return next_seq_; }
  /// Current span nesting depth (diagnostic; 0 outside any Span).
  std::uint16_t span_depth() const { return depth_; }

  /// The held records, oldest first.
  std::vector<Record> snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}), loadable by Perfetto
  /// and chrome://tracing. ts/dur are wall-clock microseconds since
  /// enable(); each event's args carry the virtual sim-time. A non-finite
  /// counter value is written as null (trace::JsonWriter).
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  friend class Span;

  struct NameEntry {
    std::string name;
    std::string category;
  };
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::int64_t sim_now_ns() const {
    return sim_clock_ ? sim_clock_->nanos() : 0;
  }
  std::int64_t wall_now_ns() const;

  /// Appends one record to the ring (overwrites oldest when full).
  /// Pre-condition: enabled_ (callers branch first).
  void record(Phase phase, NameId name, double value, std::uint64_t id);
  void push(const Record& r);

  bool enabled_ = false;
  std::uint16_t depth_ = 0;
  const sim::SimTime* sim_clock_ = nullptr;
  std::int64_t wall_base_ns_ = 0;

  std::vector<Record> ring_;
  std::size_t head_ = 0;   // next write position
  std::size_t count_ = 0;  // records held
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;

  std::vector<NameEntry> names_;
  std::unordered_map<std::string, NameId, StringHash, std::equal_to<>> index_;
};

/// RAII scoped span: captures both clocks on construction, records one
/// kComplete entry with durations on destruction. When the tracer is
/// disabled (or null), construction and destruction are a branch each.
class Span {
 public:
  /// Hot path: pre-interned name on a known tracer.
  Span(Tracer& t, NameId name) : t_(t.enabled_ ? &t : nullptr), name_(name) {
    if (t_) open();
  }
  /// Coarse path: nullable tracer (e.g. trace::current()) and a literal
  /// name, interned on first use while enabled.
  Span(Tracer* t, std::string_view name, std::string_view category = "")
      : t_(t && t->enabled_ ? t : nullptr) {
    if (t_) {
      name_ = t_->intern(name, category);
      open();
    }
  }
  ~Span() {
    if (t_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open();
  void close();

  Tracer* t_ = nullptr;
  NameId name_ = 0;
  std::int64_t sim0_ = 0;
  std::int64_t wall0_ = 0;
  std::uint16_t depth_ = 0;
};

/// The calling thread's ambient tracer (nullptr if none). Lets pure
/// algorithm layers (e.g. synthesis::Composer) emit spans without plumbing
/// a Tracer& through every signature: Simulator::step installs its tracer
/// around each handler, and harness code uses ScopedUse directly.
Tracer* current();

/// Instant event on the ambient tracer; a no-op (TLS read + branch) when
/// none is installed or tracing is disabled. For pure-algorithm layers
/// that have no Tracer reference of their own.
inline void instant_here(std::string_view name, std::string_view category = "") {
  Tracer* t = current();
  if (t && t->enabled()) t->instant(t->intern(name, category));
}

/// Counter sample on the ambient tracer; same no-op guarantee.
inline void counter_here(std::string_view name, double value,
                         std::string_view category = "") {
  Tracer* t = current();
  if (t && t->enabled()) t->counter(t->intern(name, category), value);
}

/// Installs `t` as the thread's ambient tracer for this scope, restoring
/// the previous one on destruction.
class ScopedUse {
 public:
  explicit ScopedUse(Tracer* t);
  ~ScopedUse();
  ScopedUse(const ScopedUse&) = delete;
  ScopedUse& operator=(const ScopedUse&) = delete;

 private:
  Tracer* previous_;
};

// Scoped span on the ambient tracer; a no-op (one TLS read + branch) when
// no tracer is installed or tracing is disabled.
#define IOBT_TRACE_CONCAT_(a, b) a##b
#define IOBT_TRACE_CONCAT(a, b) IOBT_TRACE_CONCAT_(a, b)
#define IOBT_TRACE_SCOPE(name, category)                         \
  ::iobt::trace::Span IOBT_TRACE_CONCAT(iobt_trace_span_, __LINE__)( \
      ::iobt::trace::current(), (name), (category))

}  // namespace iobt::trace
