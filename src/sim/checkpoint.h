#pragma once
// Deterministic checkpoint / branch / restore for the sim kernel.
//
// Closures are never serialized — state is. A Snapshot is the sim clock,
// the caller's prefix stamp and one immutable byte image: every
// participant's model state written as sim/wire.h tokens (integers as
// decimal tokens, doubles as raw bit patterns, strings length-prefixed).
// The same image lives in memory, in the checkpoint cache and on disk;
// each participant has one writer (save) and one reader (restore). The
// participants themselves (World, Network, AttackInjector, scenario
// harnesses) re-create their closures on restore by re-arming events.
// This is the shape optimistic PDES kernels use for state saving
// (ROOT-Sim's LP checkpoints): the saved image is data only, and the code
// that interprets it is re-bound by the live process.
//
// The correctness bar is digest identity: restore-at-t-then-run-to-T must
// be bit-identical to the uninterrupted run. The kernel breaks timestamp
// ties FIFO by a global scheduling sequence number, and every event that
// is pending at snapshot time was scheduled no later than t — so its seq
// is lower than the seq of anything scheduled after t. RestoreArmer
// therefore collects every participant's re-arm request together with the
// event's ORIGINAL seq (Simulator::pending_seq at save time) and schedules
// them in ascending original-seq order, before any post-restore event can
// be scheduled. Relative FIFO order among re-armed events, and between
// re-armed and future events, then replicates the uninterrupted run
// exactly.
//
// Restore targets either a FRESH stack built by the same scenario code
// (branching: one snapshot, K simulators) or the SAME stack rewound in
// place (cheap sequential what-ifs). Either way the registry demands that
// every pending event belongs to a participant: after all participants
// have cancelled their armed events, a non-empty pending queue aborts the
// restore, because an event the registry cannot re-arm would silently
// diverge the branch.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace iobt::sim {

class CheckpointRegistry;
class WireReader;  // sim/wire.h
class WireWriter;

/// Immutable image of one simulation instant: the sim clock, the prefix
/// stamp, and the byte image CheckpointRegistry::save wrote — clock, stamp,
/// then one length-prefixed wire blob per participant in registration
/// order. Snapshots own no pointers into the source stack — restoring into
/// a different Simulator (branching) is the intended use — and are safe to
/// share read-only across threads (ParallelRunner fan-out).
class Snapshot {
 public:
  /// The sim clock at save time; restore() rewinds/advances to it.
  SimTime at() const { return at_; }

  /// Canonical scenario-prefix hash this snapshot was saved under (see
  /// sim/hash.h), or 0 if the caller did not key it. A checkpoint cache
  /// (src/serve/) stamps the key at save time and verifies it before
  /// restoring, so a cache bug can never silently branch the wrong world.
  std::uint64_t prefix_hash() const { return prefix_hash_; }

  /// The byte image: what the disk tier stores and deserialize_snapshot
  /// reads back.
  const std::string& image() const { return image_; }

 private:
  friend class CheckpointRegistry;

  SimTime at_;
  std::uint64_t prefix_hash_ = 0;
  std::string image_;
};

/// Collects re-arm requests during restore. Participants hand over the
/// event's timestamp, its ORIGINAL scheduling seq (captured via
/// Simulator::pending_seq at save time), and a fresh closure; the registry
/// sorts all requests by original seq and schedules them in that order, so
/// FIFO tie-breaks at equal timestamps replicate the uninterrupted run.
class RestoreArmer {
 public:
  /// Queues one re-arm. `original_seq` must be the nonzero seq the event
  /// had in the saved run (duplicates and zeros are participant bugs and
  /// abort the restore). If `armed_out` is non-null it receives the new
  /// EventId once the registry schedules the event; the pointer must stay
  /// valid until CheckpointRegistry::restore returns.
  void rearm(SimTime when, std::uint64_t original_seq, EventFn fn,
             TagId tag = kUntagged, EventId* armed_out = nullptr) {
    pending_.push_back(Pending{when, original_seq, std::move(fn), tag, armed_out});
  }

  std::size_t size() const { return pending_.size(); }

 private:
  friend class CheckpointRegistry;

  struct Pending {
    SimTime when;
    std::uint64_t seq = 0;
    EventFn fn;
    TagId tag = kUntagged;
    EventId* armed_out = nullptr;
  };

  std::vector<Pending> pending_;
};

/// Interface a subsystem implements to participate in checkpointing.
/// save() writes the participant's model state as sim/wire.h tokens (POD
/// state and owned polymorphic state such as mobility models — never
/// closures). restore() cancels the participant's armed events, reads the
/// same tokens back over its state, and queues re-arms for every event that
/// was pending at save time. restore() returns false on malformed input
/// (a failed token, an out-of-range enum or index, a count past the bytes
/// left); the stack is then unspecified and the registry rejects the image.
/// A restore that must check the whole image before it mutates anything
/// (a schedule-prefix match) reads into a local buffer first. Participants
/// must be destroyed before their Simulator (the stack order
/// `Simulator sim; Network net; World world; ...` guarantees this).
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  /// Stable identity of this participant's state inside a Snapshot.
  /// Duplicates among participants of one Simulator get a "#<n>" suffix at
  /// registration; the image carries the final keys in roster order.
  virtual std::string_view checkpoint_key() const = 0;

  virtual void save(WireWriter& w) const = 0;
  virtual bool restore(WireReader& r, RestoreArmer& armer) = 0;
};

/// Per-Simulator roster of checkpoint participants (Simulator::checkpoint()).
/// save() walks participants in registration order; restore() rewinds the
/// clock, restores participants in the same order (so dependencies like
/// Network-before-World hold by construction order), verifies that no
/// unowned pending events survive, and re-arms everything in ascending
/// original-seq order. A restored stack must have been built by the same
/// scenario code as the saved one — key-set or schedule mismatches throw.
class CheckpointRegistry {
 public:
  explicit CheckpointRegistry(Simulator& sim) : sim_(sim) {}
  CheckpointRegistry(const CheckpointRegistry&) = delete;
  CheckpointRegistry& operator=(const CheckpointRegistry&) = delete;

  /// Adds `p` to the roster and returns the key its state will live under
  /// (checkpoint_key(), suffixed "#<n>" if already taken — deterministic
  /// by registration order, so branch stacks built by the same code get
  /// the same suffixes).
  std::string register_participant(Checkpointable* p);

  /// Removes `p`; harmless if absent. Participants call this from their
  /// destructors.
  void unregister(const Checkpointable* p);

  std::size_t participant_count() const { return participants_.size(); }

  /// Saves every participant's state into one byte image. `prefix_hash`
  /// is an optional caller key (canonical scenario-prefix hash,
  /// sim/hash.h) stamped onto the snapshot for cache-integrity checks; 0
  /// leaves it unkeyed.
  Snapshot save(std::uint64_t prefix_hash = 0) const;
  /// Decodes `snap` over this roster. Throws std::logic_error when the
  /// image does not match the roster (participant count or key order), a
  /// participant rejects its blob, or an unowned pending event survives.
  void restore(const Snapshot& snap);

  /// Copies `snap`'s byte image into `out`; always true (every snapshot is
  /// its wire image).
  bool serialize_snapshot(const Snapshot& snap, std::string& out) const;

  /// Rebuilds a Snapshot from a byte image by restoring it into THIS stack
  /// (a scratch stack built by the same scenario code as the writer), so
  /// the image is checked by the one decoder every restore runs. Any
  /// mismatch — roster size, key order, malformed, truncated or trailing
  /// bytes, a row the stack rejects — returns nullopt, never a throw; the
  /// stack's state is then unspecified.
  std::optional<Snapshot> deserialize_snapshot(std::string_view bytes);

 private:
  struct Entry {
    std::string key;
    Checkpointable* participant = nullptr;
  };

  Simulator& sim_;
  std::vector<Entry> participants_;
};

}  // namespace iobt::sim
