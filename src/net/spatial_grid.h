#pragma once
// Uniform hash-grid spatial index over node positions.
//
// The wireless substrate's geometric queries (link patching on moves and
// liveness flips, the restore-time connectivity rebuild, disc scans) were
// all O(N) or O(N^2) scans over the node table, which is the quadratic wall
// the paper's "1,000s to 10,000s of nodes" claim runs into. The grid
// buckets nodes by cell. Its owner keeps the cell size >= the radio range
// of every node it indexes, so any two indexed nodes that can be in radio
// range of each other lie within one Chebyshev cell of each other: the 3x3
// cell neighborhood of a member's position is a SUPERSET of its radio
// neighborhood among the members. net::Network keeps one grid per layer
// and one of gateways, each sized to its own members' longest radio, and
// uses them to keep its edge store exact; broadcasts read the store, not
// the grid. Queries return raw candidates, unsorted; callers apply the
// exact in_range/distance filter and any ordering they need themselves.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/message.h"
#include "sim/geometry.h"

namespace iobt::net {

class SpatialGrid {
 public:
  explicit SpatialGrid(double cell_size_m = 250.0) { set_cell_size(cell_size_m); }

  /// Edge of a cell; a non-positive size given at construction or reset
  /// reads as 1 m.
  double cell_size() const { return cell_; }
  /// Number of ids currently indexed.
  std::size_t size() const { return count_; }

  /// Inserts `id` at `p`. The caller guarantees `id` is not already present.
  void insert(NodeId id, sim::Vec2 p);
  /// Removes `id`, which must have been inserted at (or moved to) `p`.
  void remove(NodeId id, sim::Vec2 p);
  /// Relocates `id` from `from` to `to`; a no-op when both map to one cell.
  void move(NodeId id, sim::Vec2 from, sim::Vec2 to);

  /// Drops every entry and adopts a new cell size (used when a node with a
  /// longer radio joins and the covering guarantee must be restored).
  void reset(double cell_size_m);

  /// Appends every id in the 3x3 cell neighborhood of `p`. Output is
  /// unsorted but duplicate-free (each id lives in exactly one cell).
  void neighborhood(sim::Vec2 p, std::vector<NodeId>& out) const;

  /// Appends every id in the union of the 3x3 cell neighborhoods of `from`
  /// and `to`, each id once, unsorted: the candidates of a move from `from`
  /// to `to`. Cells of `to`'s block that `from`'s block already holds are
  /// skipped, so a move within one cell gathers one block.
  void neighborhood_union(sim::Vec2 from, sim::Vec2 to, std::vector<NodeId>& out) const;

  /// Appends every id in cells intersecting the disc (p, radius) — a
  /// superset of the ids within `radius` of `p`, unsorted. When the
  /// covering square spans more cells than are occupied (a huge, infinite
  /// or NaN radius) it appends every indexed id instead.
  void near(sim::Vec2 p, double radius, std::vector<NodeId>& out) const;

  /// Bytes held by the cell buckets (container capacities x element sizes
  /// plus per-entry hash-node overhead — a structural estimate, not
  /// allocator truth). Deterministic for a given operation sequence; feeds
  /// the memory-per-node bench column.
  std::size_t memory_bytes() const;

 private:
  std::int32_t coord(double v) const;
  static std::uint64_t key(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  void append_cell(std::int32_t cx, std::int32_t cy, std::vector<NodeId>& out) const;
  void set_cell_size(double c);

  double cell_ = 250.0;
  double inv_cell_ = 1.0 / 250.0;
  std::size_t count_ = 0;
  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells_;
};

}  // namespace iobt::net
