#pragma once
// Discrete-event simulation kernel.
//
// The simulator is single-threaded and fully deterministic: events at equal
// timestamps execute in scheduling order (FIFO by a monotonically increasing
// scheduling sequence number), so two runs with the same seed are
// bit-identical. Every iobt substrate (network, assets, attacks, missions)
// runs on this kernel.
//
// Hot-path layout: the priority heap holds 24-byte POD entries (timestamp,
// FIFO sequence, slot reference); callbacks and tags live in a slab of
// generation-stamped slots so heap sift operations never move a
// std::function or a string. cancel() is O(1): it releases the slot and
// bumps its generation, and the orphaned heap entry is discarded when it
// surfaces (or when the kernel compacts the heap). Event tags are interned
// once into small integer TagIds via the per-simulator TagTable; per-tag
// scheduling statistics (and, when enabled, per-tag wall-time) are always
// available for diagnostics.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"
#include "trace/trace.h"

namespace iobt::sim {

class CheckpointRegistry;

/// Packed handle for a pending event: (slot generation << 32) | slot index.
/// 0 is never a valid id, so it can be used as "none".
using EventId = std::uint64_t;
using EventFn = std::function<void()>;

/// Interned event-tag id. 0 is always the empty/untagged label.
using TagId = std::uint32_t;

inline constexpr EventId kNoEvent = 0;
inline constexpr TagId kUntagged = 0;

/// Interns free-form event labels into dense small ids so the kernel hot
/// path never copies or hashes strings. Intern once (at service
/// construction), schedule many.
class TagTable {
 public:
  TagTable() {
    intern_unique("");  // TagId 0 == untagged
  }

  /// Returns the id for `name`, creating it on first use.
  TagId intern(std::string_view name) {
    if (name.empty()) return kUntagged;
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    return intern_unique(name);
  }

  const std::string& name(TagId id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  TagId intern_unique(std::string_view name) {
    const TagId id = static_cast<TagId>(names_.size());
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
  }

  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId, StringHash, std::equal_to<>> index_;
};

/// One row of the kernel profiler: scheduling activity for a single tag.
struct TagProfileRow {
  std::string tag;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  /// Wall-clock time spent inside handlers with this tag. Only accumulated
  /// while set_profiling(true); otherwise 0.
  double busy_ms = 0.0;
};

/// The simulation scheduler: a priority queue of timed callbacks plus the
/// virtual clock. Handlers may schedule further events and cancel pending
/// ones; cancellation is immediate (O(1)) and pending_count() reflects it.
class Simulator {
 public:
  // Both out of line: the inline bodies would instantiate the
  // unique_ptr<CheckpointRegistry> deleter on an incomplete type.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Advances only while events execute.
  SimTime now() const { return now_; }

  /// Interns `tag` in this simulator's TagTable. Services that schedule on
  /// a hot path should intern their labels once and pass the TagId.
  TagId intern(std::string_view tag) { return tags_.intern(tag); }
  const TagTable& tags() const { return tags_; }

  /// Schedules `fn` at absolute virtual time `when` (must be >= now()).
  /// `tag` labels the event for diagnostics/profiling. Returns an id usable
  /// with cancel().
  EventId schedule_at(SimTime when, EventFn fn, TagId tag);
  EventId schedule_at(SimTime when, EventFn fn, std::string_view tag = {}) {
    return schedule_at(when, std::move(fn), tags_.intern(tag));
  }

  /// Schedules `fn` after `delay` (must be >= 0).
  EventId schedule_in(Duration delay, EventFn fn, TagId tag);
  EventId schedule_in(Duration delay, EventFn fn, std::string_view tag = {}) {
    return schedule_in(delay, std::move(fn), tags_.intern(tag));
  }

  /// Schedules `fn` every `period`, starting one period from now, until it
  /// returns false. Periodic events cannot be cancelled by id; return false
  /// from the callback to stop.
  void schedule_every(Duration period, std::function<bool()> fn, TagId tag);
  void schedule_every(Duration period, std::function<bool()> fn,
                      std::string_view tag = {}) {
    schedule_every(period, std::move(fn), tags_.intern(tag));
  }

  /// Cancels a pending event in O(1). Cancelling an already-executed,
  /// already-cancelled, or unknown id is a harmless no-op.
  void cancel(EventId id);

  /// The FIFO sequence number a pending event was scheduled with, or 0 if
  /// `id` is not live. Checkpoint participants capture this at save time so
  /// restore can re-arm events in their original tie-break order.
  std::uint64_t pending_seq(EventId id) const;

  /// The checkpoint-participant roster for this simulator (created on
  /// first use). Subsystems register themselves at construction; callers
  /// snapshot/restore through it (see sim/checkpoint.h).
  CheckpointRegistry& checkpoint();

  /// Executes the next pending event, advancing the clock. Returns false if
  /// no live events remain (simulation quiescent).
  bool step();

  /// Runs until the event queue drains.
  void run();

  /// Runs events with timestamp <= deadline, then sets the clock to exactly
  /// `deadline` (even if no event landed on it). Later events stay queued.
  void run_until(SimTime deadline);

  /// Equivalent to run_until(now() + span).
  void run_for(Duration span);

  /// Number of events executed so far (diagnostic).
  std::uint64_t executed_count() const { return executed_count_; }
  /// Number of live (not cancelled, not yet executed) pending events.
  std::size_t pending_count() const { return live_count_; }

  /// Enables per-tag wall-time accumulation (two clock reads per event, so
  /// off by default; counts are always collected).
  void set_profiling(bool on) { timing_ = on; }

  /// The structured tracer observing this simulator. Disabled by default;
  /// `tracer().enable()` starts recording a span per executed handler
  /// (named by its tag, category "sim") plus whatever the services record.
  /// While a handler runs, this tracer is also installed as the thread's
  /// ambient tracer (trace::current()), so nested IOBT_TRACE_SCOPE spans
  /// land in the same timeline.
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }

  /// Per-tag scheduling statistics, busiest first (by busy time when timing
  /// was enabled, else by executed count). Untouched tags are omitted.
  std::vector<TagProfileRow> profile() const;

  /// Human-readable profile table for bench/diagnostic output.
  std::string profile_table() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Callback storage: referenced by heap entries, reused via a free list.
  /// `generation` stamps each reuse so stale heap entries (and stale
  /// EventIds) are detected in O(1).
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;  // FIFO seq while live (pending_seq lookups)
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    TagId tag = kUntagged;
    bool live = false;
  };

  /// POD heap entry: what the priority queue actually sifts.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;   // FIFO tie-break at equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;   // slot generation at schedule time
  };
  struct Earliest {
    // std::push_heap builds a max-heap; invert so the earliest (when, seq)
    // is at the front.
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  struct TagStats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    double busy_ns = 0.0;
  };

  std::uint32_t acquire_slot(EventFn fn, TagId tag);
  void release_slot(std::uint32_t index);
  bool entry_live(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.generation == e.gen;
  }
  /// Drops cancelled entries off the top of the heap so front() is live.
  void prune_stale_top();
  /// Rebuilds the heap without stale entries when they dominate it.
  void maybe_compact();
  TagStats& stats_for(TagId tag);
  /// Runs one dequeued handler, with optional per-tag wall-time profiling.
  void invoke_handler(EventFn& fn, TagId tag);
  /// Lazily interns `tag`'s label into the tracer.
  trace::NameId dispatch_name(TagId tag);

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_count_ = 0;
  std::size_t live_count_ = 0;
  std::size_t stale_count_ = 0;  // cancelled entries still in the heap
  bool timing_ = false;

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  TagTable tags_;
  std::vector<TagStats> stats_;  // indexed by TagId; grown lazily

  trace::Tracer tracer_;
  /// TagId -> NameId in the tracer (0 = not yet interned).
  std::vector<trace::NameId> dispatch_names_;

  /// Restore rewinds the clock directly (the only sanctioned way now_ can
  /// move backwards).
  friend class CheckpointRegistry;
  std::unique_ptr<CheckpointRegistry> checkpoint_;
};

}  // namespace iobt::sim
