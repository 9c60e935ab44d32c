#pragma once
// Dense, tiled cell-list spatial index over node positions.
//
// The wireless substrate's geometric queries (link patching on moves and
// liveness flips, the restore-time connectivity rebuild, disc scans) were
// all O(N) or O(N^2) scans over the node table, which is the quadratic wall
// the paper's "1,000s to 10,000s of nodes" claim runs into. The grid
// buckets nodes by cell. Its cells are at least as wide as the radio range
// of every member, so any two members that can be in radio range of each
// other lie within one Chebyshev cell of each other: the 3x3 cell
// neighborhood of a member's position is a SUPERSET of its radio
// neighborhood among the members. net::Network keeps one grid per layer
// and one of gateways and uses them to keep its edge store exact;
// broadcasts read the store, not the grid; a batch of moves updates every
// entry before it walks any block. Queries return raw candidates,
// unsorted; callers apply the exact in_range/distance filter and any
// ordering they need themselves.
//
// Layout. The cells form a dense box (w x h cells) over the members'
// cells, with a margin of kMargin empty cells on every side. Each row of
// the box is cut into tiles of kTile cells; a tile holds the packed
// entries {position, range, id} of its cells contiguously, in cell order,
// with one end offset per cell. A 3x3 block is then at most six
// contiguous spans (three rows, each cut at most once by a tile edge),
// and the hot caller reads a candidate's position and range from the
// entry itself. A per-id slot (tiled cell, index in tile) makes a move
// within one cell an in-place write of the position; a move to another
// cell of the tile swaps the entry across the cell boundaries between
// them, and a move to another tile swaps it to the end of its tile and in
// from the end of the new one: O(kTile) either way, never O(row width).
// Packed entries hold exactly the position last given to insert/move: for
// net::Network that is positions_ of every live node.
//
// Box and cell policy. The grid's cell is base * 2^k, where base is the
// larger of the size asked for at construction/reset and the longest
// range ever inserted since, and k is the smallest that keeps the box
// within max(kMinCells, kCellsPerMember * members) cells and every cell
// index within +-2^30. A member landing outside the box's interior, a
// longer range, or (while k > 0) a doubling of the member count replans:
// the box and k are recomputed from the packed entries, with some slack
// for growth, and every entry is re-bucketed. Query points outside the
// box are clamped into its edge cells (clamping is 1-Lipschitz, so the
// covering invariant holds); the margin keeps those edge cells free of
// members with finite coordinates. A non-finite coordinate (NaN, +-inf)
// can fit no box: it is pinned to the edge cell, NaN and -inf low, +inf
// high, for members and queries alike.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "sim/geometry.h"

namespace iobt::net {

class SpatialGrid {
 public:
  /// One member as the grid stores it: the position and radio range last
  /// given for `id`.
  struct Entry {
    sim::Vec2 p;
    double range_m;
    NodeId id;
  };

  explicit SpatialGrid(double cell_size_m = 250.0) { set_base(cell_size_m); }

  /// Edge of a cell: at least the size asked for (a non-positive size
  /// given at construction or reset reads as 1 m) and every member's range.
  double cell_size() const { return cell_; }
  /// Number of ids currently indexed.
  std::size_t size() const { return count_; }

  /// Inserts `id` at `p` with radio range `range_m`. The caller guarantees
  /// `id` is not already present. A range longer than the cells replans
  /// the grid around it.
  void insert(NodeId id, sim::Vec2 p, double range_m);
  /// Removes `id`, which must have been inserted at (or moved to) `p`.
  void remove(NodeId id, sim::Vec2 p);
  /// Relocates `id` from `from` (its current position) to `to`.
  void move(NodeId id, sim::Vec2 from, sim::Vec2 to);

  /// Drops every entry and adopts a new base cell size.
  void reset(double cell_size_m);

  /// Calls visit(first, last) once per contiguous span of entries in the
  /// 3x3 cell block around `p`: each member of the block is in exactly one
  /// span, in no particular order, and there are at most six spans (three
  /// rows, each cut at most once by a tile edge). The grid must not change
  /// during the walk.
  template <typename Visit>
  void visit_block(sim::Vec2 p, Visit&& visit) const;

  /// Appends every id in the 3x3 cell neighborhood of `p`. Output is
  /// unsorted but duplicate-free (each id lives in exactly one cell).
  void neighborhood(sim::Vec2 p, std::vector<NodeId>& out) const;

  /// Appends every id in cells intersecting the disc (p, radius) — a
  /// superset of the ids within `radius` of `p`, unsorted. A square wider
  /// than the box (a huge, infinite or NaN radius) covers the whole box:
  /// every indexed id.
  void near(sim::Vec2 p, double radius, std::vector<NodeId>& out) const;

  /// Bytes held by the tiles, cell offsets and slots (container capacities
  /// x element sizes — a structural estimate, not allocator truth).
  /// Deterministic for a given operation sequence; feeds the
  /// memory-per-node bench column.
  std::size_t memory_bytes() const;

 private:
  /// Cells per tile. Fixed, so a move costs O(kTile) swaps at most.
  static constexpr int kTile = 8;
  /// Empty cells kept between the members' cells and the box edge.
  static constexpr int kMargin = 2;
  /// Cell budget of the box: max(kMinCells, kCellsPerMember * members).
  static constexpr double kMinCells = 65536.0;
  static constexpr double kCellsPerMember = 4.0;
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  /// Where an id lives: its cell, as a tiled index (tile * kTile + column
  /// within the tile), and its index in the tile's entries.
  struct Slot {
    std::uint32_t cell = kNoCell;
    std::uint32_t pos = 0;
  };

  void set_base(double c);
  /// Cell coordinate of `v` relative to origin `o`, before clamping.
  double rel(double v, double o) const { return std::floor(v * inv_cell_) - o; }
  /// Clamps a relative cell coordinate into [0, n); NaN goes low. Plain
  /// compares: std::fmin/fmax are library calls here, on the path of
  /// every move and query (EXPERIMENTS.md N7).
  static int clamp_cell(double c, int n) {
    if (!(c > 0.0)) return 0;
    if (c < n - 1) return static_cast<int>(c);
    return n - 1;
  }
  int col(double x) const { return clamp_cell(rel(x, ox_), w_); }
  int row(double y) const { return clamp_cell(rel(y, oy_), h_); }
  std::uint32_t tiled_cell(int c, int r) const {
    return static_cast<std::uint32_t>((r * tiles_per_row_ + c / kTile) * kTile + c % kTile);
  }
  std::uint32_t tiled_cell(sim::Vec2 p) const { return tiled_cell(col(p.x), row(p.y)); }
  /// True iff `p` lies in the box's interior: every finite coordinate at
  /// least kMargin cells from the edge. False on an empty box.
  bool interior(sim::Vec2 p) const;
  /// Recomputes the cell size and box from every entry, plus `extra` (an
  /// entry being inserted) when given, and re-buckets them all.
  void replan(const Entry* extra);
  /// Puts `e` into `cell` (tiled index) and records its slot.
  void place(const Entry& e, std::uint32_t cell);
  /// Takes the entry in `s` out of its tile; the entry's slot is cleared.
  void take(Slot s);

  /// Calls visit(first, last) on the entries of columns [a, b] of row
  /// `r` (all in the box, all in one tile), unless there are none.
  template <typename Visit>
  void visit_run(int r, int a, int b, Visit&& visit) const;

  double base_ = 1.0;     ///< cell size asked for
  double widest_ = 0.0;   ///< longest range inserted since the last reset
  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  double ox_ = 0.0, oy_ = 0.0;  ///< cell coordinate of the box's corner
  int w_ = 0, h_ = 0;           ///< box size in cells; 0 until first insert
  int tiles_per_row_ = 0;
  std::size_t count_ = 0;
  std::size_t planned_count_ = 0;  ///< count_ at the last replan
  /// h_ * tiles_per_row_ tiles, row-major; entries in cell order.
  std::vector<std::vector<Entry>> tiles_;
  /// Per tiled cell: end of its entries within its tile.
  std::vector<std::uint32_t> end_;
  std::vector<Slot> slot_;  ///< by id
};

template <typename Visit>
void SpatialGrid::visit_block(sim::Vec2 p, Visit&& visit) const {
  if (count_ == 0) return;
  const int cx = col(p.x), cy = row(p.y);
  // The block's columns, clipped to the box, are cut at most once by a
  // tile edge, at the same column in each of its rows.
  const int c0 = std::max(cx - 1, 0), c1 = std::min(cx + 1, w_ - 1);
  const int cut = std::min(c1, c0 - c0 % kTile + kTile - 1);
  const int r1 = std::min(cy + 1, h_ - 1);
  for (int r = std::max(cy - 1, 0); r <= r1; ++r) {
    visit_run(r, c0, cut, visit);
    if (cut < c1) visit_run(r, cut + 1, c1, visit);
  }
}

template <typename Visit>
void SpatialGrid::visit_run(int r, int a, int b, Visit&& visit) const {
  const std::uint32_t first_cell = tiled_cell(a, r);
  const std::uint32_t begin = first_cell % kTile == 0 ? 0 : end_[first_cell - 1];
  const std::uint32_t end = end_[first_cell + static_cast<std::uint32_t>(b - a)];
  if (begin == end) return;
  const Entry* data = tiles_[first_cell / kTile].data();
  visit(data + begin, data + end);
}

}  // namespace iobt::net
