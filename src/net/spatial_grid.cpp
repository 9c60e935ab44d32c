#include "net/spatial_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace iobt::net {

void SpatialGrid::set_cell_size(double c) {
  // A non-positive cell size (no radios registered yet) degenerates to a
  // 1 m grid; correctness only needs cell_ >= every member's range, which
  // holds vacuously until the first insert after reset().
  cell_ = c > 0.0 ? c : 1.0;
  inv_cell_ = 1.0 / cell_;
}

std::int32_t SpatialGrid::coord(double v) const {
  // Saturate at +-2^30 cells: a far-out or non-finite coordinate (NaN goes
  // to the low end) must never reach an overflowing int cast, and the
  // cell offsets the queries add stay representable. Clamping is monotone
  // and never widens the gap between two cells, so every pair of adjacent
  // cells stays adjacent and the covering invariant holds. Plain compares:
  // std::fmin/fmax are library calls here, on the hot path of every move.
  constexpr std::int32_t kLimit = 1 << 30;
  const double c = std::floor(v * inv_cell_);
  if (!(c > -kLimit)) return -kLimit;
  if (c < kLimit) return static_cast<std::int32_t>(c);
  return kLimit;
}

void SpatialGrid::insert(NodeId id, sim::Vec2 p) {
  cells_[key(coord(p.x), coord(p.y))].push_back(id);
  ++count_;
}

void SpatialGrid::remove(NodeId id, sim::Vec2 p) {
  const auto it = cells_.find(key(coord(p.x), coord(p.y)));
  assert(it != cells_.end() && "SpatialGrid::remove: cell not found");
  if (it == cells_.end()) return;
  auto& bucket = it->second;
  const auto pos = std::find(bucket.begin(), bucket.end(), id);
  assert(pos != bucket.end() && "SpatialGrid::remove: id not in its cell");
  if (pos == bucket.end()) return;
  // Bucket order is irrelevant (queries are unsorted), so swap-erase.
  *pos = bucket.back();
  bucket.pop_back();
  if (bucket.empty()) cells_.erase(it);
  --count_;
}

void SpatialGrid::move(NodeId id, sim::Vec2 from, sim::Vec2 to) {
  const std::int32_t fx = coord(from.x), fy = coord(from.y);
  const std::int32_t tx = coord(to.x), ty = coord(to.y);
  if (fx == tx && fy == ty) return;
  remove(id, from);
  insert(id, to);
}

void SpatialGrid::reset(double cell_size_m) {
  cells_.clear();
  count_ = 0;
  set_cell_size(cell_size_m);
}

void SpatialGrid::append_cell(std::int32_t cx, std::int32_t cy,
                              std::vector<NodeId>& out) const {
  const auto it = cells_.find(key(cx, cy));
  if (it == cells_.end()) return;
  out.insert(out.end(), it->second.begin(), it->second.end());
}

void SpatialGrid::neighborhood(sim::Vec2 p, std::vector<NodeId>& out) const {
  const std::int32_t cx = coord(p.x), cy = coord(p.y);
  for (std::int32_t dy = -1; dy <= 1; ++dy) {
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      append_cell(cx + dx, cy + dy, out);
    }
  }
}

void SpatialGrid::neighborhood_union(sim::Vec2 from, sim::Vec2 to,
                                     std::vector<NodeId>& out) const {
  const std::int32_t fx = coord(from.x), fy = coord(from.y);
  const std::int32_t tx = coord(to.x), ty = coord(to.y);
  neighborhood(from, out);
  if (fx == tx && fy == ty) return;
  // Each id lives in exactly one cell, so visiting each cell of the union
  // once appends each id once.
  for (std::int32_t dy = -1; dy <= 1; ++dy) {
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      const std::int32_t cx = tx + dx, cy = ty + dy;
      if (std::abs(std::int64_t{cx} - fx) <= 1 && std::abs(std::int64_t{cy} - fy) <= 1) {
        continue;
      }
      append_cell(cx, cy, out);
    }
  }
}

void SpatialGrid::near(sim::Vec2 p, double radius, std::vector<NodeId>& out) const {
  // Half-width of the query square in cells, kept in double: an infinite,
  // NaN (std::max passes it through) or huge radius must never reach the
  // int cast. A square with more cells than are occupied is cheaper to
  // answer by walking the occupied cells, which returns every id (still a
  // superset); the negated compare sends NaN down that path too.
  const double half = std::ceil(std::max(radius, 0.0) * inv_cell_);
  const double side = 2.0 * half + 1.0;
  if (!(side * side <= static_cast<double>(cells_.size()))) {
    for (const auto& [key, ids] : cells_) out.insert(out.end(), ids.begin(), ids.end());
    return;
  }
  const auto r = static_cast<std::int32_t>(half);
  const std::int32_t cx = coord(p.x), cy = coord(p.y);
  for (std::int32_t dy = -r; dy <= r; ++dy) {
    for (std::int32_t dx = -r; dx <= r; ++dx) {
      append_cell(cx + dx, cy + dy, out);
    }
  }
}

std::size_t SpatialGrid::memory_bytes() const {
  // Hash-node overhead approximated as key + bucket vector header + two
  // pointers; exact malloc bookkeeping is allocator-specific and would
  // make the bench column nondeterministic.
  constexpr std::size_t kNodeOverhead = sizeof(std::uint64_t) + 2 * sizeof(void*);
  std::size_t bytes = 0;
  for (const auto& [key, ids] : cells_) {
    bytes += kNodeOverhead + sizeof(ids) + ids.capacity() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace iobt::net
