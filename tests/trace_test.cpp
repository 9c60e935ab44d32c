// iobt::trace — span nesting, ring wraparound, counter tracks, the
// zero-allocation disabled path, tracer attachment/swap, ambient scoping,
// and JSON round trips through a minimal parser, of the tracer's export
// and of the JSON writer itself (the exported file must be loadable by
// Perfetto, so the test actually parses what we emit).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/json.h"
#include "trace/trace.h"

// ------------------------------------------------- allocation counting ----
// Global operator new replacement for this test binary: lets the disabled-
// and enabled-path tests assert the record hot paths never allocate.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace iobt {
namespace {

// ------------------------------------------------ minimal JSON parser ----
// Just enough JSON to round-trip the Chrome trace-event format: objects,
// arrays, strings with escapes, numbers, booleans, null.

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }

  Json value() {
    ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  Json object() {
    Json v;
    v.kind = Json::kObject;
    expect('{');
    ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      ws();
      Json key = string_value();
      ws();
      expect(':');
      v.obj[key.str] = value();
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.kind = Json::kArray;
    expect('[');
    ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::kString;
    expect('"');
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c != '\\') {
        v.str.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'n': v.str.push_back('\n'); break;
        case 'r': v.str.push_back('\r'); break;
        case 't': v.str.push_back('\t'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          if (code > 0x7f) throw std::runtime_error("non-ascii \\u");
          v.str.push_back(static_cast<char>(code));
          break;
        }
        default: throw std::runtime_error("bad escape");
      }
    }
  }

  Json boolean() {
    Json v;
    v.kind = Json::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  Json null() {
    if (s_.compare(pos_, 4, "null") != 0) throw std::runtime_error("bad null");
    pos_ += 4;
    Json v;
    v.kind = Json::kNull;
    return v;
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    Json v;
    v.kind = Json::kNumber;
    v.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------- core paths ----

TEST(TracerTest, InternIsStableAndKeepsFirstCategory) {
  trace::Tracer t;
  const trace::NameId a = t.intern("net.frame", "net");
  const trace::NameId b = t.intern("net.frame", "other");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.name(a), "net.frame");
  EXPECT_EQ(t.category(a), "net");  // first category sticks
  EXPECT_NE(a, 0u);                 // 0 is reserved
  EXPECT_EQ(t.name(9999), "(unknown)");
}

TEST(TracerTest, SpanNestingRecordsDepthsAndDurations) {
  trace::Tracer t;
  const trace::NameId outer = t.intern("outer", "test");
  const trace::NameId inner = t.intern("inner", "test");
  t.enable(64);
  {
    trace::Span so(t, outer);
    EXPECT_EQ(t.span_depth(), 1u);
    {
      trace::Span si(t, inner);
      EXPECT_EQ(t.span_depth(), 2u);
    }
  }
  EXPECT_EQ(t.span_depth(), 0u);
  const auto records = t.snapshot();
  ASSERT_EQ(records.size(), 2u);
  // Inner closes first.
  EXPECT_EQ(records[0].name, inner);
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(records[1].name, outer);
  EXPECT_EQ(records[1].depth, 0u);
  EXPECT_GE(records[0].wall_dur_ns, 0);
  // The outer span began no later than, and ended no earlier than, the
  // inner one.
  EXPECT_LE(records[1].wall_ns, records[0].wall_ns);
  EXPECT_GE(records[1].wall_ns + records[1].wall_dur_ns,
            records[0].wall_ns + records[0].wall_dur_ns);
}

TEST(TracerTest, RingWrapsOverwritingOldest) {
  trace::Tracer t;
  const trace::NameId n = t.intern("w", "test");
  t.enable(8);
  for (int i = 0; i < 20; ++i) t.counter(n, static_cast<double>(i));
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  EXPECT_EQ(t.total_recorded(), 20u);
  const auto records = t.snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Oldest-first: seqs 12..19, values 12..19, monotone.
    EXPECT_EQ(records[i].seq, 12 + i);
    EXPECT_DOUBLE_EQ(records[i].value, static_cast<double>(12 + i));
  }
}

TEST(TracerTest, ReenableClearsTheRing) {
  trace::Tracer t;
  const trace::NameId n = t.intern("x", "test");
  t.enable(8);
  t.instant(n);
  EXPECT_EQ(t.size(), 1u);
  t.enable(8);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(TracerTest, DisableMidSpanStillRecordsTheClose) {
  trace::Tracer t;
  const trace::NameId n = t.intern("x", "test");
  t.enable(16);
  {
    trace::Span s(t, n);
    t.disable();
  }
  // The span began while enabled; its close is still wanted.
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.snapshot()[0].phase, trace::Phase::kComplete);
  // But brand-new records are not.
  t.instant(n);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TracerTest, AsyncSpansCarryTheirId) {
  trace::Tracer t;
  const trace::NameId n = t.intern("net.xfer", "net");
  t.enable(16);
  t.async_begin(n, 0xabcULL);
  t.async_end(n, 0xabcULL);
  const auto records = t.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].phase, trace::Phase::kAsyncBegin);
  EXPECT_EQ(records[1].phase, trace::Phase::kAsyncEnd);
  EXPECT_EQ(records[0].async_id, 0xabcULL);
  EXPECT_EQ(records[1].async_id, 0xabcULL);
}

// ------------------------------------------------------- overhead model ----

TEST(TracerTest, DisabledPathsRecordNothingAndNeverAllocate) {
  trace::Tracer t;
  const trace::NameId n = t.intern("hot", "test");
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    t.instant(n);
    t.counter(n, 1.0);
    t.async_begin(n, 7);
    t.async_end(n, 7);
    trace::Span s(t, n);
  }
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(TracerTest, EnabledRecordPathIsAllocationFree) {
  trace::Tracer t;
  const trace::NameId n = t.intern("hot", "test");
  t.enable(1024);  // ring allocated here, never after
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 4096; ++i) {  // wraps: overwrite path covered too
    t.instant(n);
    t.counter(n, static_cast<double>(i));
    trace::Span s(t, n);
  }
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_EQ(t.size(), 1024u);
}

// --------------------------------------------------- ambient + renaming ----

TEST(TracerTest, AmbientScopeInstallsAndRestores) {
  EXPECT_EQ(trace::current(), nullptr);
  trace::Tracer t;
  t.enable(64);
  {
    trace::ScopedUse use(&t);
    EXPECT_EQ(trace::current(), &t);
    trace::instant_here("amb.instant", "test");
    trace::counter_here("amb.counter", 2.5, "test");
    { IOBT_TRACE_SCOPE("amb.span", "test"); }
    {
      trace::ScopedUse inner(nullptr);  // nested override
      EXPECT_EQ(trace::current(), nullptr);
      trace::instant_here("dropped", "test");
    }
    EXPECT_EQ(trace::current(), &t);
  }
  EXPECT_EQ(trace::current(), nullptr);
  trace::instant_here("dropped.too", "test");
  const auto records = t.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(t.name(records[0].name), "amb.instant");
  EXPECT_DOUBLE_EQ(records[1].value, 2.5);
  EXPECT_EQ(t.name(records[2].name), "amb.span");
}

// ------------------------------------------------- simulator integration ----

TEST(SimulatorTraceTest, DispatchEmitsTaggedSpansWithNesting) {
  sim::Simulator sim;
  sim.tracer().enable(256);
  const sim::TagId tag = sim.intern("unit.handler");
  int ran = 0;
  sim.schedule_in(sim::Duration::seconds(1.0), [&]() {
    ++ran;
    IOBT_TRACE_SCOPE("unit.inner", "test");  // ambient: installed by step()
  }, tag);
  sim.run();
  EXPECT_EQ(ran, 1);
  const auto records = sim.tracer().snapshot();
  ASSERT_EQ(records.size(), 2u);
  // Inner scope closes before the dispatch span.
  EXPECT_EQ(sim.tracer().name(records[0].name), "unit.inner");
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(sim.tracer().name(records[1].name), "unit.handler");
  EXPECT_EQ(sim.tracer().category(records[1].name), "sim");
  EXPECT_EQ(records[1].depth, 0u);
  // Handlers run at frozen sim time: the sim timestamp matches the event.
  EXPECT_EQ(records[1].sim_ns, sim::Duration::seconds(1.0).nanos());
  EXPECT_EQ(records[1].sim_dur_ns, 0);
}

TEST(SimulatorTraceTest, TracingDoesNotPerturbResults) {
  // Same seeded run with and without tracing; the ring is deliberately tiny
  // so wraparound is exercised. Results must be bit-identical.
  const auto run = [](bool traced) {
    sim::Simulator sim;
    if (traced) sim.tracer().enable(64);
    sim::Rng rng(5);
    double acc = 0;
    sim.schedule_every(
        sim::Duration::seconds(1.0),
        [&]() {
          acc += rng.normal(0, 1);
          return sim.now() < sim::SimTime::seconds(100);
        },
        sim.intern("accumulate"));
    sim.run();
    EXPECT_EQ(sim.tracer().total_recorded() > 64, traced);
    return std::make_pair(acc, sim.executed_count());
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(with.first),
            std::bit_cast<std::uint64_t>(without.first));
  EXPECT_EQ(with.second, without.second);
}

// ---------------------------------------------------------- JSON export ----

TEST(TraceJsonTest, RoundTripsThroughAParser) {
  trace::Tracer t;
  const trace::NameId weird = t.intern("a\"b\\c\nd", "cat\t1");
  const trace::NameId span = t.intern("span.one", "test");
  const trace::NameId ctr = t.intern("ctr", "test");
  const trace::NameId async_n = t.intern("async.op", "test");
  t.enable(64);
  t.instant(weird);
  {
    trace::Span s(t, span);
    t.counter(ctr, 3.5);
  }
  t.async_begin(async_n, 0xabcULL);
  t.async_end(async_n, 0xabcULL);
  t.disable();

  const Json root = JsonParser(t.to_json()).parse();
  ASSERT_EQ(root.kind, Json::kObject);
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::kArray);
  // Metadata + 5 records.
  ASSERT_EQ(events.arr.size(), 6u);
  EXPECT_EQ(events.arr[0].at("ph").str, "M");

  const Json& instant = events.arr[1];
  EXPECT_EQ(instant.at("name").str, "a\"b\\c\nd");  // escapes survived
  EXPECT_EQ(instant.at("cat").str, "cat\t1");
  EXPECT_EQ(instant.at("ph").str, "i");
  EXPECT_EQ(instant.at("s").str, "t");
  EXPECT_EQ(instant.at("pid").number, 0.0);
  EXPECT_EQ(instant.at("tid").number, 0.0);

  const Json& counter = events.arr[2];
  EXPECT_EQ(counter.at("ph").str, "C");
  EXPECT_DOUBLE_EQ(counter.at("args").at("value").number, 3.5);

  const Json& complete = events.arr[3];
  EXPECT_EQ(complete.at("ph").str, "X");
  EXPECT_GE(complete.at("dur").number, 0.0);
  EXPECT_EQ(complete.at("args").at("depth").number, 0.0);

  EXPECT_EQ(events.arr[4].at("ph").str, "b");
  EXPECT_EQ(events.arr[4].at("id").str, "0xabc");
  EXPECT_EQ(events.arr[5].at("ph").str, "e");
  EXPECT_EQ(events.arr[5].at("id").str, "0xabc");

  // Every event sits on the wall-clock axis (complete spans are stamped
  // with their *begin* time, so the stream is not globally ts-sorted —
  // Perfetto sorts on load).
  for (std::size_t i = 1; i < events.arr.size(); ++i) {
    EXPECT_GE(events.arr[i].at("ts").number, 0.0);
  }
}

TEST(TraceJsonTest, EmptyTracerStillEmitsValidJson) {
  trace::Tracer t;
  const Json root = JsonParser(t.to_json()).parse();
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::kArray);
  EXPECT_EQ(events.arr.size(), 1u);  // just the metadata event
}

TEST(TraceJsonTest, NonFiniteCounterStillParses) {
  // JSON has no NaN or infinity: a non-finite sample is exported as null.
  trace::Tracer t;
  const trace::NameId ctr = t.intern("ctr", "test");
  t.enable(8);
  t.counter(ctr, std::numeric_limits<double>::quiet_NaN());
  t.counter(ctr, std::numeric_limits<double>::infinity());
  t.disable();

  const Json root = JsonParser(t.to_json()).parse();
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.arr.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(events.arr[i].at("ph").str, "C");
    EXPECT_EQ(events.arr[i].at("args").at("value").kind, Json::kNull);
  }
}

TEST(TraceJsonTest, WriterRoundTripsNestingEscapesAndNumbers) {
  const std::string tricky = std::string("q\"b\\c\x01") + "\n";
  std::ostringstream os;
  trace::JsonWriter w(os);
  w.begin_object();
  w.key("rows").begin_array();
  w.begin_object().key("xs").begin_array().integer(-3).number(2.26, 1).end_array();
  w.key("empty").begin_object().end_object().end_object();
  w.begin_array().begin_array().end_array().end_array();
  w.end_array();
  w.key(tricky).string(tricky);
  w.key("nan").number(std::numeric_limits<double>::quiet_NaN(), 3);
  w.key("inf").number(-std::numeric_limits<double>::infinity());
  w.key("third").number(1.0 / 3.0);
  w.key("hex").hex(0xabcULL, 16, "0x").key("flag").boolean(false);
  w.end_object();

  const Json root = JsonParser(os.str()).parse();
  const Json& rows = root.at("rows");
  ASSERT_EQ(rows.arr.size(), 2u);
  const Json& xs = rows.arr[0].at("xs");
  ASSERT_EQ(xs.arr.size(), 2u);
  EXPECT_EQ(xs.arr[0].number, -3.0);
  EXPECT_EQ(xs.arr[1].number, 2.3);  // at the one decimal asked for
  EXPECT_EQ(rows.arr[0].at("empty").kind, Json::kObject);
  EXPECT_TRUE(rows.arr[0].at("empty").obj.empty());
  ASSERT_EQ(rows.arr[1].arr.size(), 1u);
  EXPECT_TRUE(rows.arr[1].arr[0].arr.empty());
  EXPECT_EQ(root.at(tricky).str, tricky);  // keys are escaped too
  EXPECT_EQ(root.at("nan").kind, Json::kNull);
  EXPECT_EQ(root.at("inf").kind, Json::kNull);
  EXPECT_EQ(root.at("third").number, 1.0 / 3.0);  // shortest text round-trips
  EXPECT_EQ(root.at("hex").str, "0x0000000000000abc");
  EXPECT_EQ(root.at("flag").kind, Json::kBool);
  EXPECT_FALSE(root.at("flag").boolean);
}

}  // namespace
}  // namespace iobt
