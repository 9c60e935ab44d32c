#pragma once
// The one JSON writer: the tracer's Chrome trace-event export and every
// bench artifact (BENCH_*.json) go through it, so separators, string
// escaping and number formatting are decided in one place.
//
// A streaming writer over a std::ostream. Containers nest, commas are
// placed automatically, and inside an object each value follows its key().
// The layout is fixed: every element of the two outermost levels starts
// on its own line (a bench's top-level fields and its table rows, a
// trace's events), and deeper levels stay on their row's line.
//
// Numbers: integers are exact; a double is written at a given number of
// decimals, or as the shortest text that parses back to it. JSON has no
// NaN or infinity, so a non-finite double is written as null.

#include <cassert>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace iobt::trace {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object() { return open('{', '}'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', ']'); }
  JsonWriter& end_array() { return close(']'); }

  /// The next member's key; only valid directly inside an object.
  JsonWriter& key(std::string_view k) {
    assert(!levels_.empty() && levels_.back().close == '}' && !after_key_);
    separate();
    quoted(k);
    os_ << ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& string(std::string_view s) {
    separate();
    quoted(s);
    return *this;
  }

  JsonWriter& boolean(bool b) {
    separate();
    os_ << (b ? "true" : "false");
    return *this;
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& integer(T v) {
    char buf[24];
    return raw(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }

  /// `v` with exactly `decimals` digits after the point (printf "%.*f").
  JsonWriter& number(double v, int decimals) {
    assert(decimals >= 0 && decimals <= 17);
    if (!std::isfinite(v)) return null();
    char buf[400];  // DBL_MAX has 309 integer digits
    return raw(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::fixed, decimals)
                        .ptr);
  }

  /// `v` as the shortest text that parses back to the same double.
  JsonWriter& number(double v) {
    if (!std::isfinite(v)) return null();
    char buf[32];
    return raw(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }

  /// `v` as a string of lowercase hex digits after `prefix`, zero-padded
  /// to at least `min_digits` ("%016llx" is hex(v, 16)).
  JsonWriter& hex(std::uint64_t v, int min_digits, std::string_view prefix = {}) {
    char buf[16];
    const char* end = std::to_chars(buf, buf + sizeof buf, v, 16).ptr;
    separate();
    os_ << '"' << prefix;
    for (auto n = end - buf; n < min_digits; ++n) os_ << '0';
    os_.write(buf, end - buf);
    os_ << '"';
    return *this;
  }

 private:
  struct Level {
    char close;
    bool empty;
  };
  /// Elements of containers at most this deep start on their own line.
  static constexpr std::size_t kLineDepth = 2;

  JsonWriter& null() {
    separate();
    os_ << "null";
    return *this;
  }

  JsonWriter& raw(const char* begin, const char* end) {
    separate();
    os_.write(begin, end - begin);
    return *this;
  }

  JsonWriter& open(char opener, char closer) {
    separate();
    os_ << opener;
    levels_.push_back(Level{closer, true});
    return *this;
  }

  JsonWriter& close(char closer) {
    assert(!levels_.empty() && levels_.back().close == closer && !after_key_);
    const bool had_elements = !levels_.back().empty;
    if (had_elements && levels_.size() <= kLineDepth) {
      newline(levels_.size() - 1);
    }
    levels_.pop_back();
    os_ << closer;
    if (levels_.empty()) os_ << '\n';
    return *this;
  }

  /// Whatever goes before the next key or value: nothing after a key,
  /// else a comma after an earlier element and, at the outer levels, a
  /// line break.
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (levels_.empty()) return;
    Level& top = levels_.back();
    if (!top.empty) os_ << ',';
    top.empty = false;
    if (levels_.size() <= kLineDepth) newline(levels_.size());
  }

  void newline(std::size_t depth) {
    os_ << '\n';
    for (std::size_t i = 0; i < depth; ++i) os_ << "  ";
  }

  /// `s` as a JSON string literal: quotes, backslashes and control
  /// characters escaped, everything else copied through.
  void quoted(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    os_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\r': os_ << "\\r"; break;
        case '\t': os_ << "\\t"; break;
        default: {
          const auto u = static_cast<unsigned char>(c);
          if (u < 0x20) {
            os_ << "\\u00" << kHex[u >> 4] << kHex[u & 0xf];
          } else {
            os_ << c;
          }
        }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<Level> levels_;
  bool after_key_ = false;
};

}  // namespace iobt::trace
