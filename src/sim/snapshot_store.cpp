#include "sim/snapshot_store.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "sim/rng.h"
#include "sim/wire.h"

namespace iobt::sim {

namespace {

constexpr char kMagic[] = "iosnap";
constexpr std::uint64_t kFormatVersion = 2;

// The checksum is FNV-1a over the payload bytes — cheap, deterministic,
// and enough to catch truncation and bit rot (adversarial tampering is out
// of scope; the stamp check catches honest cross-key mixups).
// get() accepts only the exact line this writes for the fields it parses.
std::string header_line(std::uint64_t key, std::uint64_t size, std::uint64_t checksum) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %" PRIu64 " %016" PRIx64 " %" PRIu64 " %016" PRIx64 "\n",
                kMagic, kFormatVersion, key, size, checksum);
  return buf;
}

}  // namespace

std::string SnapshotStore::file_name(std::uint64_t key) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "snap_%016" PRIx64 ".iosnap", key);
  return buf;
}

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("SnapshotStore: cannot create directory " + dir_);
  }
}

bool SnapshotStore::put(std::uint64_t key, const std::string& payload) {
  const std::filesystem::path final_path =
      std::filesystem::path(dir_) / file_name(key);
  // Temp file in the SAME directory: rename across filesystems is not
  // atomic (and may outright fail), so staging must share the mount.
  const std::filesystem::path tmp_path =
      final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out << header_line(key, payload.size(), fnv1a(payload));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  return true;
}

SnapshotStore::GetStatus SnapshotStore::get(std::uint64_t key,
                                            std::string& out) const {
  const std::filesystem::path path =
      std::filesystem::path(dir_) / file_name(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return GetStatus::kMissing;

  std::string header;
  if (!std::getline(in, header)) return GetStatus::kRejected;
  std::istringstream hs(header);
  std::string magic, version, key_hex, size_dec, checksum_hex;
  std::uint64_t format = 0, stamp = 0, payload_size = 0, checksum = 0;
  if (!(hs >> magic >> version >> key_hex >> size_dec >> checksum_hex) ||
      magic != kMagic || !parse_u64_token(version, format) ||
      format != kFormatVersion || !parse_hex64_token(key_hex, stamp) ||
      !parse_u64_token(size_dec, payload_size) ||
      !parse_hex64_token(checksum_hex, checksum)) {
    return GetStatus::kRejected;
  }
  // Byte equality with the canonical line rejects what the token parse
  // lets through: leading or repeated blanks, tabs, trailing tokens.
  if (header + '\n' != header_line(stamp, payload_size, checksum)) return GetStatus::kRejected;
  if (stamp != key) return GetStatus::kRejected;

  // Read what the file holds, never what the header claims: a corrupt
  // size must not drive the allocation. Exact-size check: a short payload
  // is a truncation, trailing garbage means the size field lied.
  std::ostringstream body;
  body << in.rdbuf();
  std::string payload = std::move(body).str();
  if (payload.size() != payload_size) return GetStatus::kRejected;
  if (fnv1a(payload) != checksum) return GetStatus::kRejected;

  out = std::move(payload);
  return GetStatus::kHit;
}

std::size_t SnapshotStore::file_count() const {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (e.path().extension() == ".iosnap") ++n;
  }
  return n;
}

}  // namespace iobt::sim
