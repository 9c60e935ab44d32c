#include "trace/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace iobt::trace {

namespace {

thread_local Tracer* g_current = nullptr;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Escapes a string for a JSON string literal (quotes, backslash, control
/// characters). Trace names are usually dotted identifiers, so the common
/// case copies straight through.
void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
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
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0"
        ",\"args\":{\"name\":\"iobt\"}}";
  char buf[160];
  for (const Record& r : snapshot()) {
    os << ",\n";
    os << "{\"name\":\"";
    write_escaped(os, name(r.name));
    os << "\",\"cat\":\"";
    const std::string& cat = category(r.name);
    write_escaped(os, cat.empty() ? "iobt" : cat);
    os << "\",\"ph\":\"" << phase_string(r.phase) << "\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"pid\":0,\"tid\":0",
                  static_cast<double>(r.wall_ns) * 1e-3);
    os << buf;
    switch (r.phase) {
      case Phase::kComplete:
        std::snprintf(buf, sizeof buf,
                      ",\"dur\":%.3f,\"args\":{\"sim_ts_s\":%.9f,"
                      "\"sim_dur_s\":%.9f,\"depth\":%u}",
                      static_cast<double>(r.wall_dur_ns) * 1e-3,
                      static_cast<double>(r.sim_ns) * 1e-9,
                      static_cast<double>(r.sim_dur_ns) * 1e-9, r.depth);
        os << buf;
        break;
      case Phase::kInstant:
        std::snprintf(buf, sizeof buf,
                      ",\"s\":\"t\",\"args\":{\"sim_ts_s\":%.9f}",
                      static_cast<double>(r.sim_ns) * 1e-9);
        os << buf;
        break;
      case Phase::kCounter:
        std::snprintf(buf, sizeof buf, ",\"args\":{\"value\":%.17g}", r.value);
        os << buf;
        break;
      case Phase::kAsyncBegin:
      case Phase::kAsyncEnd:
        std::snprintf(buf, sizeof buf,
                      ",\"id\":\"0x%" PRIx64 "\",\"args\":{\"sim_ts_s\":%.9f}",
                      r.async_id, static_cast<double>(r.sim_ns) * 1e-9);
        os << buf;
        break;
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace iobt::trace
