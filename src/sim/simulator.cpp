#include "sim/simulator.h"

#include "sim/checkpoint.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace iobt::sim {

std::string to_string(SimTime t) {
  std::ostringstream os;
  os << t.to_seconds() << "s";
  return os.str();
}

std::string to_string(Duration d) {
  std::ostringstream os;
  os << d.to_seconds() << "s";
  return os.str();
}

Simulator::Simulator() { tracer_.bind_sim_clock(&now_); }

Simulator::~Simulator() = default;

CheckpointRegistry& Simulator::checkpoint() {
  if (!checkpoint_) checkpoint_ = std::make_unique<CheckpointRegistry>(*this);
  return *checkpoint_;
}

std::uint64_t Simulator::pending_seq(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return 0;
  const Slot& s = slots_[slot];
  if (!s.live || s.generation != gen) return 0;
  return s.seq;
}

std::uint32_t Simulator::acquire_slot(EventFn fn, TagId tag) {
  std::uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    Slot& s = slots_[index];
    free_head_ = s.next_free;
    s.next_free = kNoSlot;
    s.fn = std::move(fn);
    s.tag = tag;
    s.live = true;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    Slot s;
    s.fn = std::move(fn);
    s.tag = tag;
    s.live = true;
    slots_.push_back(std::move(s));
  }
  return index;
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.fn = nullptr;
  s.live = false;
  ++s.generation;  // invalidates outstanding EventIds and heap entries
  s.next_free = free_head_;
  free_head_ = index;
}

trace::NameId Simulator::dispatch_name(TagId tag) {
  if (tag >= dispatch_names_.size()) {
    dispatch_names_.resize(std::max<std::size_t>(tags_.size(), tag + 1), 0);
  }
  if (dispatch_names_[tag] == 0) {
    dispatch_names_[tag] = tracer_.intern(
        tag == kUntagged ? std::string_view("(untagged)")
                         : std::string_view(tags_.name(tag)),
        "sim");
  }
  return dispatch_names_[tag];
}

Simulator::TagStats& Simulator::stats_for(TagId tag) {
  if (tag >= stats_.size()) {
    stats_.resize(std::max<std::size_t>(tags_.size(), tag + 1));
  }
  return stats_[tag];
}

EventId Simulator::schedule_at(SimTime when, EventFn fn, TagId tag) {
  if (when < now_) {
    throw std::logic_error("Simulator::schedule_at: scheduling into the past (" +
                           to_string(when) + " < now " + to_string(now_) + ")");
  }
  const std::uint32_t slot = acquire_slot(std::move(fn), tag);
  const std::uint32_t gen = slots_[slot].generation;
  const std::uint64_t seq = next_seq_++;
  slots_[slot].seq = seq;
  heap_.push_back(HeapEntry{when, seq, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), Earliest{});
  ++live_count_;
  ++stats_for(tag).scheduled;
  return (static_cast<EventId>(gen) << 32) | slot;
}

EventId Simulator::schedule_in(Duration delay, EventFn fn, TagId tag) {
  if (delay < Duration::zero()) {
    throw std::logic_error("Simulator::schedule_in: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn), tag);
}

void Simulator::schedule_every(Duration period, std::function<bool()> fn,
                               TagId tag) {
  if (period <= Duration::zero()) {
    throw std::logic_error("Simulator::schedule_every: period must be positive");
  }
  // One shared state per loop. Ownership: only the armed event's closure
  // holds the state strongly; `state->tick` itself captures a weak_ptr, so
  // there is no shared_ptr cycle and a loop still armed when the Simulator
  // is destroyed is freed along with the slot slab.
  struct PeriodicState {
    std::function<bool()> body;
    Duration period;
    TagId tag;
    EventFn tick;
  };
  auto state = std::make_shared<PeriodicState>();
  state->body = std::move(fn);
  state->period = period;
  state->tag = tag;
  state->tick = [this, weak = std::weak_ptr<PeriodicState>(state)]() {
    auto st = weak.lock();
    if (!st || !st->body()) return;  // loop stopped (or state torn down)
    schedule_at(now_ + st->period, [st]() { st->tick(); }, st->tag);
  };
  schedule_in(period, [state]() { state->tick(); }, tag);
}

void Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != gen) return;  // already fired or cancelled
  ++stats_for(s.tag).cancelled;
  release_slot(slot);
  --live_count_;
  ++stale_count_;
  maybe_compact();
}

void Simulator::prune_stale_top() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Earliest{});
    heap_.pop_back();
    --stale_count_;
  }
}

void Simulator::maybe_compact() {
  // Cancelled entries stay in the heap until they surface; if a churn-heavy
  // workload lets them dominate, filter them out in one O(n) pass.
  if (stale_count_ < 64 || stale_count_ < 2 * live_count_) return;
  std::erase_if(heap_, [this](const HeapEntry& e) { return !entry_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Earliest{});
  stale_count_ = 0;
}

bool Simulator::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Earliest{});
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    if (!entry_live(e)) {  // cancelled after scheduling
      --stale_count_;
      continue;
    }
    assert(e.when >= now_ && "event queue must be monotone");
    now_ = e.when;
    // Move the callback out and free the slot before invoking: the handler
    // may cancel its own (now stale) id or schedule events that reuse the
    // slot, both of which must be safe.
    Slot& s = slots_[e.slot];
    EventFn fn = std::move(s.fn);
    const TagId tag = s.tag;
    release_slot(e.slot);
    --live_count_;
    ++executed_count_;
    ++stats_for(tag).executed;
    if (tracer_.enabled()) {
      // Span per handler, named by the tag; the tracer becomes the
      // thread's ambient tracer so spans the handler opens (synthesis
      // phases, mission repairs) nest inside this one.
      trace::ScopedUse use(&tracer_);
      trace::Span span(tracer_, dispatch_name(tag));
      invoke_handler(fn, tag);
    } else {
      invoke_handler(fn, tag);
    }
    return true;
  }
  return false;
}

void Simulator::invoke_handler(EventFn& fn, TagId tag) {
  if (timing_) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    // stats_for must be re-resolved here: if fn() scheduled an event with
    // a previously-unseen tag, stats_ was resized and any reference taken
    // before the call is dangling.
    stats_for(tag).busy_ns += std::chrono::duration<double, std::nano>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
  } else {
    fn();
  }
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  for (;;) {
    prune_stale_top();  // ensure front() is a live event before peeking
    if (heap_.empty() || heap_.front().when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_for(Duration span) { run_until(now_ + span); }

std::vector<TagProfileRow> Simulator::profile() const {
  std::vector<TagProfileRow> rows;
  for (TagId id = 0; id < stats_.size(); ++id) {
    const TagStats& st = stats_[id];
    if (st.scheduled == 0 && st.executed == 0 && st.cancelled == 0) continue;
    const std::string label = id == kUntagged      ? "(untagged)"
                              : id < tags_.size() ? tags_.name(id)
                                                  : "(unknown)";
    rows.push_back(TagProfileRow{label,
                                 st.scheduled, st.executed, st.cancelled,
                                 st.busy_ns * 1e-6});
  }
  std::sort(rows.begin(), rows.end(),
            [](const TagProfileRow& a, const TagProfileRow& b) {
              if (a.busy_ms != b.busy_ms) return a.busy_ms > b.busy_ms;
              if (a.executed != b.executed) return a.executed > b.executed;
              return a.tag < b.tag;
            });
  return rows;
}

std::string Simulator::profile_table() const {
  std::ostringstream os;
  os << "tag                        scheduled   executed  cancelled    busy_ms\n";
  for (const auto& r : profile()) {
    os << r.tag;
    for (std::size_t i = r.tag.size(); i < 25; ++i) os << ' ';
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %10llu %10llu %10llu %10.3f\n",
                  static_cast<unsigned long long>(r.scheduled),
                  static_cast<unsigned long long>(r.executed),
                  static_cast<unsigned long long>(r.cancelled), r.busy_ms);
    os << buf;
  }
  return os.str();
}

}  // namespace iobt::sim
