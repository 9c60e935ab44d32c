#include "sim/checkpoint.h"

#include <algorithm>
#include <stdexcept>

#include "sim/wire.h"

namespace iobt::sim {

std::string CheckpointRegistry::register_participant(Checkpointable* p) {
  std::string key{p->checkpoint_key()};
  // Deterministic de-duplication: the n-th participant claiming a key gets
  // "#<n>". Branch stacks built by the same scenario code register in the
  // same order, so suffixes line up between save and restore stacks.
  const auto taken = [this](const std::string& k) {
    return std::any_of(participants_.begin(), participants_.end(),
                       [&](const Entry& e) { return e.key == k; });
  };
  if (taken(key)) {
    for (int n = 2;; ++n) {
      std::string candidate = key + "#" + std::to_string(n);
      if (!taken(candidate)) {
        key = std::move(candidate);
        break;
      }
    }
  }
  participants_.push_back(Entry{key, p});
  return key;
}

void CheckpointRegistry::unregister(const Checkpointable* p) {
  std::erase_if(participants_,
                [p](const Entry& e) { return e.participant == p; });
}

Snapshot CheckpointRegistry::save(std::uint64_t prefix_hash) const {
  Snapshot snap;
  snap.at_ = sim_.now();
  snap.prefix_hash_ = prefix_hash;
  // Blobs first, so the image is allocated once at its final size: a large
  // image is not regrown, and the cache that keeps it holds no slack. A
  // token is at most 21 bytes with its separator: the header is three,
  // and each participant adds two length prefixes and two separators.
  std::vector<WireWriter> blobs(participants_.size());
  std::size_t size = 3 * 21;
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    participants_[i].participant->save(blobs[i]);
    size += participants_[i].key.size() + blobs[i].out().size() + 2 * 21 + 2;
  }
  WireWriter w;
  w.reserve(size);
  w.u64(prefix_hash).time(snap.at_).u64(participants_.size());
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    w.bytes(participants_[i].key).bytes(blobs[i].out());
  }
  snap.image_ = w.take();
  return snap;
}

void CheckpointRegistry::restore(const Snapshot& snap) {
  // The restore stack must mirror the save stack: same participants, same
  // registration order. Split the image into per-participant blobs and
  // check the roster up front, before any state is touched.
  WireReader r(snap.image_);
  r.u64();   // prefix stamp, also held by snap
  r.time();  // clock, also held by snap
  const std::uint64_t count = r.u64();
  if (r.ok() && count != participants_.size()) {
    throw std::logic_error(
        "CheckpointRegistry::restore: snapshot has " + std::to_string(count) +
        " participant states but " + std::to_string(participants_.size()) +
        " participants are registered — the restore stack must be built by "
        "the same scenario code as the saved one");
  }
  std::vector<std::string_view> blobs;
  blobs.reserve(participants_.size());
  for (const Entry& e : participants_) {
    if (r.ok() && r.bytes_view() != e.key) {
      throw std::logic_error(
          "CheckpointRegistry::restore: snapshot is missing state for "
          "participant '" + e.key + "'");
    }
    blobs.push_back(r.bytes_view());
  }
  if (!r.ok() || !r.at_end()) {
    throw std::logic_error(
        "CheckpointRegistry::restore: malformed snapshot image");
  }

  // Clock first: participants may consult now() while restoring, and the
  // re-arm below schedules at absolute snapshot-era timestamps.
  sim_.now_ = snap.at_;

  RestoreArmer armer;
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    WireReader br(blobs[i]);
    // A reader must consume its blob exactly — leftover bytes mean the
    // image was written by a different state layout (version skew).
    if (!participants_[i].participant->restore(br, armer) || !br.ok() ||
        !br.at_end()) {
      throw std::logic_error(
          "CheckpointRegistry::restore: participant '" + participants_[i].key +
          "' rejected its state image");
    }
  }

  // Every event pending in THIS stack must have been cancelled by its
  // participant. A survivor belongs to a non-participating event source,
  // which the registry cannot re-arm deterministically — refuse rather
  // than silently diverge the branch.
  if (sim_.pending_count() != 0) {
    throw std::logic_error(
        "CheckpointRegistry::restore: " +
        std::to_string(sim_.pending_count()) +
        " pending event(s) survived participant restore — every event "
        "source must be a checkpoint participant");
  }

  // Re-arm in ascending original-seq order. Pending-at-t events all have
  // seqs below anything scheduled after t, so replaying their relative
  // order — before any post-restore scheduling — reproduces every FIFO
  // tie-break of the uninterrupted run.
  std::stable_sort(armer.pending_.begin(), armer.pending_.end(),
                   [](const RestoreArmer::Pending& a,
                      const RestoreArmer::Pending& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < armer.pending_.size(); ++i) {
    RestoreArmer::Pending& p = armer.pending_[i];
    if (p.seq == 0 || (i > 0 && armer.pending_[i - 1].seq == p.seq)) {
      throw std::logic_error(
          "CheckpointRegistry::restore: re-arm requests must carry the "
          "event's unique original seq (got " + std::to_string(p.seq) + ")");
    }
    const EventId id = sim_.schedule_at(p.when, std::move(p.fn), p.tag);
    if (p.armed_out) *p.armed_out = id;
  }
}

bool CheckpointRegistry::serialize_snapshot(const Snapshot& snap,
                                            std::string& out) const {
  out = snap.image_;
  return true;
}

std::optional<Snapshot> CheckpointRegistry::deserialize_snapshot(
    std::string_view bytes) {
  WireReader r(bytes);
  Snapshot snap;
  snap.prefix_hash_ = r.u64();
  snap.at_ = r.time();
  if (!r.ok()) return std::nullopt;
  snap.image_ = std::string(bytes);
  // The one decoder: restore validates the roster, every participant's
  // blob, and the re-arm schedule. Each of its rejections is a
  // std::logic_error (a corrupt image can also ask to schedule into the
  // past, which the kernel refuses the same way).
  try {
    restore(snap);
  } catch (const std::logic_error&) {
    return std::nullopt;
  }
  return snap;
}

}  // namespace iobt::sim
