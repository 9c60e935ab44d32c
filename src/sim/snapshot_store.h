#pragma once
// Durable store: the library's one on-disk container.
//
// One file per 64-bit key, named snap_<key>.iosnap. A key is either a
// canonical prefix hash (CampaignService's disk tier under its memory
// cache, the payload a Snapshot::image) or a replication key
// (ParallelRunner::run_resumable, the payload one finished replication's
// record). Each file holds a one-line header followed by the payload; the
// header carries the format version, the key stamp, the payload size, and
// an FNV-1a checksum:
//
//   iosnap 2 <key 16 hex> <payload bytes, decimal> <checksum 16 hex>\n
//   <payload>
//
// Version 2 embeds the MetricsRegistry image as sim/wire.h tokens; a
// version-1 file (the older metrics text image) is rejected.
//
// Writes are crash-safe: the payload lands in a temp file in the same
// directory and is renamed into place (std::filesystem::rename is atomic
// within a filesystem), so a reader never observes a half-written file —
// it sees the old file, the new file, or no file. Puts under distinct keys
// touch distinct files, so concurrent writers need no lock. Reads are
// paranoid: anything malformed — bad magic, unsupported version, size
// mismatch, checksum mismatch, wrong key stamp — is kRejected, and the
// caller falls back to recomputing. A store must never be able to crash
// its caller or silently feed it divergent state.

#include <cstdint>
#include <string>

namespace iobt::sim {

class SnapshotStore {
 public:
  enum class GetStatus {
    kHit,       ///< file present, header + checksum + stamp all verified
    kMissing,   ///< no file for this key
    kRejected,  ///< file present but corrupt/truncated/mismatched
  };

  /// Opens (creating if needed) the store directory. Throws
  /// std::runtime_error if the directory cannot be created.
  explicit SnapshotStore(std::string dir);

  /// Durably writes `payload` under `key` (temp file + rename). Returns
  /// false on any I/O failure; the previous file for this key, if any, is
  /// untouched in that case.
  bool put(std::uint64_t key, const std::string& payload);

  /// Loads and verifies the payload stored under `key` into `out`.
  /// `out` is only meaningful on kHit.
  GetStatus get(std::uint64_t key, std::string& out) const;

  /// Number of .iosnap files currently in the directory (test/diagnostic).
  std::size_t file_count() const;

  const std::string& dir() const { return dir_; }

  /// The file a given key maps to (relative to dir()); exposed so tests
  /// can corrupt it deliberately.
  static std::string file_name(std::uint64_t key);

 private:
  std::string dir_;
};

}  // namespace iobt::sim
