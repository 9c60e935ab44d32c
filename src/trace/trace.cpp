#include "trace/trace.h"

#include <chrono>
#include <sstream>

#include "trace/json.h"

namespace iobt::trace {

namespace {

thread_local Tracer* g_current = nullptr;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* phase_string(Phase p) {
  switch (p) {
    case Phase::kComplete: return "X";
    case Phase::kInstant: return "i";
    case Phase::kCounter: return "C";
    case Phase::kAsyncBegin: return "b";
    case Phase::kAsyncEnd: return "e";
  }
  return "i";
}

}  // namespace

Tracer* current() { return g_current; }

ScopedUse::ScopedUse(Tracer* t) : previous_(g_current) { g_current = t; }
ScopedUse::~ScopedUse() { g_current = previous_; }

Tracer::Tracer() {
  intern("");  // NameId 0 reserved, so 0 can mean "not interned yet"
}

const std::string& Tracer::name(NameId id) const {
  static const std::string kUnknown = "(unknown)";
  return id < names_.size() ? names_[id].name : kUnknown;
}

const std::string& Tracer::category(NameId id) const {
  static const std::string kNone;
  return id < names_.size() ? names_[id].category : kNone;
}

NameId Tracer::intern(std::string_view name, std::string_view category) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const NameId id = static_cast<NameId>(names_.size());
  names_.push_back(NameEntry{std::string(name), std::string(category)});
  index_.emplace(names_.back().name, id);
  return id;
}

void Tracer::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, Record{});
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  next_seq_ = 0;
  wall_base_ns_ = steady_ns();
  enabled_ = true;
}

void Tracer::disable() { enabled_ = false; }

std::int64_t Tracer::wall_now_ns() const { return steady_ns() - wall_base_ns_; }

void Tracer::push(const Record& r) {
  ring_[head_] = r;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;  // overwrote the oldest record
  }
}

void Tracer::record(Phase phase, NameId name, double value, std::uint64_t id) {
  Record r;
  r.seq = next_seq_++;
  r.sim_ns = sim_now_ns();
  r.wall_ns = wall_now_ns();
  r.value = value;
  r.async_id = id;
  r.name = name;
  r.phase = phase;
  r.depth = depth_;
  push(r);
}

void Span::open() {
  sim0_ = t_->sim_now_ns();
  wall0_ = t_->wall_now_ns();
  depth_ = t_->depth_++;
}

void Span::close() {
  --t_->depth_;
  // The tracer may have been disabled mid-span; the record is still wanted
  // (the span began while enabled), but only if the ring still exists.
  if (t_->ring_.empty()) return;
  Record r;
  r.seq = t_->next_seq_++;
  r.sim_ns = sim0_;
  r.wall_ns = wall0_;
  r.sim_dur_ns = t_->sim_now_ns() - sim0_;
  r.wall_dur_ns = t_->wall_now_ns() - wall0_;
  r.name = name_;
  r.phase = Phase::kComplete;
  r.depth = depth_;
  t_->push(r);
}

std::vector<Record> Tracer::snapshot() const {
  std::vector<Record> out;
  out.reserve(count_);
  // Oldest record sits at head_ once the ring has wrapped, else at 0.
  const std::size_t start = count_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object().key("displayTimeUnit").string("ms").key("traceEvents").begin_array();
  w.begin_object().key("ph").string("M").key("name").string("process_name");
  w.key("pid").integer(0).key("args").begin_object().key("name").string("iobt");
  w.end_object().end_object();
  for (const Record& r : snapshot()) {
    const std::string& cat = category(r.name);
    const double sim_s = static_cast<double>(r.sim_ns) * 1e-9;
    w.begin_object().key("name").string(name(r.name));
    w.key("cat").string(cat.empty() ? "iobt" : cat);
    w.key("ph").string(phase_string(r.phase));
    w.key("ts").number(static_cast<double>(r.wall_ns) * 1e-3, 3);
    w.key("pid").integer(0).key("tid").integer(0);
    switch (r.phase) {
      case Phase::kComplete:
        w.key("dur").number(static_cast<double>(r.wall_dur_ns) * 1e-3, 3);
        w.key("args").begin_object().key("sim_ts_s").number(sim_s, 9);
        w.key("sim_dur_s").number(static_cast<double>(r.sim_dur_ns) * 1e-9, 9);
        w.key("depth").integer(r.depth).end_object();
        break;
      case Phase::kInstant:
        w.key("s").string("t");
        w.key("args").begin_object().key("sim_ts_s").number(sim_s, 9).end_object();
        break;
      case Phase::kCounter:
        w.key("args").begin_object().key("value").number(r.value).end_object();
        break;
      case Phase::kAsyncBegin:
      case Phase::kAsyncEnd:
        w.key("id").hex(r.async_id, 1, "0x");
        w.key("args").begin_object().key("sim_ts_s").number(sim_s, 9).end_object();
        break;
    }
    w.end_object();
  }
  w.end_array().end_object();
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace iobt::trace
