#pragma once
// Byte-exact text wire format for checkpoint persistence.
//
// Snapshots must survive a disk round trip bit-for-bit — the digest
// contract of the serve layer compares a re-warmed branch against serial
// re-simulation, so one flipped mantissa bit is a divergence. Doubles
// therefore travel as the hex of their raw bit pattern (printf %.17g does
// not preserve NaN payloads or distinguish every -0.0 path), integers as
// decimal tokens, and byte strings length-prefixed so embedded spaces and
// newlines never confuse the tokenizer. This is the library's one text
// codec: checkpoint images, MetricsRegistry images and the replication
// records of campaign resume are written and read with it.
//
// WireReader is fail-soft: any malformed token latches ok() to false and
// every subsequent read returns a zero value, so decoders can run a whole
// field list and check ok() once at the end — corrupt input must yield a
// clean rejection, never UB or a throw from parsing.
//
// parse_u64_token / parse_hex64_token / parse_f64_token are the one strict
// number parser for every text image in the library (wire images, metrics
// images, replication records, snapshot-file headers). They accept exactly
// what the writers emit, so an accepted token re-encodes to the same bytes.

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "sim/geometry.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace iobt::sim {

/// Decimal token: [0-9]+, no leading zero except "0" itself, no overflow.
/// No sign, no whitespace. Returns false (leaving `out` alone) otherwise.
inline bool parse_u64_token(std::string_view tok, std::uint64_t& out) {
  if (tok.empty() || (tok[0] == '0' && tok.size() > 1)) return false;
  std::uint64_t v = 0;
  for (const char c : tok) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

/// Hex token: exactly 16 lowercase hex digits (printf "%016" PRIx64).
/// Branch-free per digit (a table lookup; 0x10 marks a non-digit): every
/// double in a checkpoint image passes through here on each restore.
inline bool parse_hex64_token(std::string_view tok, std::uint64_t& out) {
  static constexpr auto kNibble = [] {
    std::array<std::uint8_t, 256> t{};
    t.fill(0x10);
    for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<std::uint8_t>(c - '0');
    for (int c = 'a'; c <= 'f'; ++c) t[c] = static_cast<std::uint8_t>(c - 'a' + 10);
    return t;
  }();
  if (tok.size() != 16) return false;
  std::uint64_t v = 0;
  std::uint8_t bad = 0;
  for (const char c : tok) {
    const std::uint8_t nibble = kNibble[static_cast<unsigned char>(c)];
    bad |= nibble;
    v = v << 4 | (nibble & 0xf);
  }
  if (bad & 0x10) return false;
  out = v;
  return true;
}

/// A double's raw bit pattern as a hex token (see parse_hex64_token).
inline bool parse_f64_token(std::string_view tok, double& out) {
  std::uint64_t bits = 0;
  if (!parse_hex64_token(tok, bits)) return false;
  std::memcpy(&out, &bits, sizeof out);
  return true;
}

class WireWriter {
 public:
  WireWriter& u64(std::uint64_t v) {
    char tok[21];  // 20 digits at most, plus the separator
    char* end = std::to_chars(tok, tok + 20, v).ptr;
    *end++ = ' ';
    buf_.append(tok, static_cast<std::size_t>(end - tok));
    return *this;
  }
  /// Two's-complement round trip through the u64 token space.
  WireWriter& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  WireWriter& boolean(bool b) { return u64(b ? 1 : 0); }
  /// Raw bit pattern as 16 hex chars — the only bit-exact text encoding.
  /// Hand-rolled nibble loop: the same bytes as printf "%016" PRIx64,
  /// at a fraction of snprintf's cost (every checkpoint save encodes).
  WireWriter& f64(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    char tok[17];
    for (int i = 15; i >= 0; --i) {
      tok[i] = "0123456789abcdef"[bits & 0xf];
      bits >>= 4;
    }
    tok[16] = ' ';
    buf_.append(tok, sizeof tok);
    return *this;
  }
  /// Length-prefixed raw bytes (binary-safe: embedded separators are fine).
  WireWriter& bytes(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
    buf_ += ' ';
    return *this;
  }
  WireWriter& time(SimTime t) { return i64(t.nanos()); }
  WireWriter& dur(Duration d) { return i64(d.nanos()); }
  WireWriter& vec2(Vec2 v) { return f64(v.x).f64(v.y); }
  WireWriter& rect(const Rect& r) { return vec2(r.min).vec2(r.max); }
  WireWriter& rng(const Rng& g) {
    const Rng::State st = g.state();
    for (std::uint64_t word : st.s) u64(word);
    return f64(st.cached_normal).boolean(st.has_cached_normal);
  }

  void reserve(std::size_t n) { buf_.reserve(n); }
  const std::string& out() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}

  std::uint64_t u64() {
    std::string_view tok;
    std::uint64_t v = 0;
    if (!next_token(tok)) return 0;
    if (!parse_u64_token(tok, v)) return fail_u64();
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() {
    const std::uint64_t v = u64();
    if (v > 1) return static_cast<bool>(fail_u64());
    return v != 0;
  }
  double f64() {
    std::string_view tok;
    double x = 0.0;
    if (!next_token(tok)) return 0.0;
    if (!parse_f64_token(tok, x)) return static_cast<double>(fail_u64());
    return x;
  }
  std::string bytes() { return std::string(bytes_view()); }
  /// bytes() without the copy; the view points into the reader's input.
  std::string_view bytes_view() {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining()) {
      fail_u64();
      return {};
    }
    const std::string_view s = in_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    // Consume the trailing separator the writer always emits.
    if (pos_ >= in_.size() || in_[pos_] != ' ') {
      fail_u64();
      return {};
    }
    ++pos_;
    return s;
  }
  SimTime time() { return SimTime(i64()); }
  Duration dur() { return Duration(i64()); }
  Vec2 vec2() {
    Vec2 v;
    v.x = f64();
    v.y = f64();
    return v;
  }
  Rect rect() {
    Rect r;
    r.min = vec2();
    r.max = vec2();
    return r;
  }
  Rng rng() {
    Rng::State st;
    for (std::uint64_t& word : st.s) word = u64();
    st.cached_normal = f64();
    st.has_cached_normal = boolean();
    return Rng::from_state(st);
  }

  /// A corrupt element count must never drive a giant allocation: callers
  /// gate `reserve(n)` on n <= remaining() (every element is >= 2 bytes on
  /// the wire, so a legitimate count can never exceed the bytes left).
  std::size_t remaining() const { return in_.size() - pos_; }
  bool at_end() const { return pos_ == in_.size(); }
  bool ok() const { return ok_; }

 private:
  bool next_token(std::string_view& tok) {
    if (!ok_) return false;
    const std::size_t sep = in_.find(' ', pos_);
    if (sep == std::string_view::npos || sep == pos_) {
      ok_ = false;
      return false;
    }
    tok = in_.substr(pos_, sep - pos_);
    pos_ = sep + 1;
    return true;
  }
  std::uint64_t fail_u64() {
    ok_ = false;
    return 0;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace iobt::sim
