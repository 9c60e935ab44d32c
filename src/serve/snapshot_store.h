#pragma once
// Durable snapshot store: the disk tier under CampaignService's memory cache.
//
// One file per canonical prefix hash, named snap_<hash>.iosnap, holding a
// one-line header followed by a snapshot's byte image (Snapshot::image).
// The header carries the format version, the prefix stamp, the payload
// size, and an FNV-1a checksum:
//
//   iosnap 2 <prefix 16 hex> <payload bytes, decimal> <checksum 16 hex>\n
//   <payload>
//
// Version 2 embeds the MetricsRegistry image as sim/wire.h tokens; a
// version-1 file (the older metrics text image) is rejected.
//
// Writes are crash-safe: the image lands in a temp file in the same
// directory and is renamed into place (std::filesystem::rename is atomic
// within a filesystem), so a reader never observes a half-written file —
// it sees the old file, the new file, or no file. Reads are paranoid:
// anything malformed — bad magic, unsupported version, size mismatch,
// checksum mismatch, wrong prefix stamp — is kRejected, and the caller
// falls back to a cold simulation. A store must never be able to crash
// the service or silently feed it a divergent snapshot.

#include <cstdint>
#include <string>

namespace iobt::serve {

class SnapshotStore {
 public:
  enum class GetStatus {
    kHit,       ///< file present, header + checksum + stamp all verified
    kMissing,   ///< no file for this prefix
    kRejected,  ///< file present but corrupt/truncated/mismatched
  };

  /// Opens (creating if needed) the store directory. Throws
  /// std::runtime_error if the directory cannot be created.
  explicit SnapshotStore(std::string dir);

  /// Durably writes `payload` as the snapshot for `prefix_hash`
  /// (temp file + rename). Returns false on any I/O failure; the
  /// previous file for this prefix, if any, is untouched in that case.
  bool put(std::uint64_t prefix_hash, const std::string& payload);

  /// Loads and verifies the snapshot for `prefix_hash` into `out`.
  /// `out` is only meaningful on kHit.
  GetStatus get(std::uint64_t prefix_hash, std::string& out) const;

  /// Number of .iosnap files currently in the directory (test/diagnostic).
  std::size_t file_count() const;

  const std::string& dir() const { return dir_; }

  /// The file a given prefix maps to (relative to dir()); exposed so tests
  /// can corrupt it deliberately.
  static std::string file_name(std::uint64_t prefix_hash);

 private:
  std::string dir_;
};

}  // namespace iobt::serve
