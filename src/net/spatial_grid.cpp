#include "net/spatial_grid.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace iobt::net {

namespace {

/// A coordinate is in the box's interior along one axis when it is
/// non-finite (pinned to an edge, so no box can do better) or its relative
/// cell `c` keeps `margin` cells from both ends of the `n` cells.
bool inside(double v, double c, int n, int margin) {
  return !std::isfinite(v) || (c >= margin && c <= n - 1 - margin);
}

/// Bitwise equality, so a NaN coordinate equals itself.
[[maybe_unused]] bool same_point(sim::Vec2 a, sim::Vec2 b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void SpatialGrid::set_base(double c) {
  // A non-positive cell size (no radios registered yet) degenerates to a
  // 1 m grid; correctness only needs cells >= every member's range, which
  // the grid keeps itself from the ranges it is given.
  base_ = c > 0.0 ? c : 1.0;
  cell_ = base_;
  inv_cell_ = 1.0 / cell_;
}

bool SpatialGrid::interior(sim::Vec2 p) const {
  if (w_ == 0) return false;
  return inside(p.x, rel(p.x, ox_), w_, kMargin) && inside(p.y, rel(p.y, oy_), h_, kMargin);
}

void SpatialGrid::insert(NodeId id, sim::Vec2 p, double range_m) {
  if (id >= slot_.size()) slot_.resize(std::size_t{id} + 1);
  assert(slot_[id].cell == kNoCell && "SpatialGrid::insert: id already present");
  if (range_m > widest_) widest_ = range_m;
  ++count_;
  const Entry e{p, range_m, id};
  // Replan when the box cannot take p, the cells no longer cover every
  // range, or the member count has doubled since cells were widened to
  // fit the budget (they may fit at a smaller size now).
  const bool widened = cell_ > std::max(base_, widest_) && count_ >= 2 * planned_count_;
  if (!interior(p) || range_m > cell_ || widened) {
    replan(&e);
    return;
  }
  place(e, tiled_cell(p));
}

void SpatialGrid::remove(NodeId id, sim::Vec2 p) {
  assert(id < slot_.size() && slot_[id].cell != kNoCell && "SpatialGrid::remove: id absent");
  assert(same_point(tiles_[slot_[id].cell / kTile][slot_[id].pos].p, p) &&
         "SpatialGrid::remove: p is not the id's position");
  (void)p;
  take(slot_[id]);
  --count_;
}

void SpatialGrid::move(NodeId id, sim::Vec2 from, sim::Vec2 to) {
  assert(id < slot_.size() && slot_[id].cell != kNoCell && "SpatialGrid::move: id absent");
  const Slot s = slot_[id];
  std::vector<Entry>& tile = tiles_[s.cell / kTile];
  assert(same_point(tile[s.pos].p, from) && "SpatialGrid::move: from is not the id's position");
  (void)from;
  const double rx = rel(to.x, ox_), ry = rel(to.y, oy_);
  // Plain compares first: false for NaN and +-inf, which interior() sorts.
  const bool interior_cell = rx >= kMargin && rx <= w_ - 1 - kMargin && ry >= kMargin &&
                             ry <= h_ - 1 - kMargin;
  if (!interior_cell && !interior(to)) {
    tile[s.pos].p = to;
    replan(nullptr);
    return;
  }
  const std::uint32_t cell = tiled_cell(clamp_cell(rx, w_), clamp_cell(ry, h_));
  if (cell == s.cell) {
    tile[s.pos].p = to;
    return;
  }
  Entry e = tile[s.pos];
  e.p = to;
  if (cell / kTile != s.cell / kTile) {
    take(s);
    place(e, cell);
    return;
  }
  // Same tile: carry the hole across the cell boundaries between the two
  // cells, one entry per boundary.
  std::uint32_t* end = &end_[s.cell - s.cell % kTile];
  std::uint32_t pos = s.pos;
  const int a = static_cast<int>(s.cell % kTile), b = static_cast<int>(cell % kTile);
  for (int j = a; j < b; ++j) {  // rightwards: the last of cell j fills the hole
    const std::uint32_t last = end[j] - 1;
    if (last != pos) {
      tile[pos] = tile[last];
      slot_[tile[pos].id].pos = pos;
    }
    pos = last;
    --end[j];
  }
  for (int j = a; j > b; --j) {  // leftwards: the first of cell j fills it
    const std::uint32_t first = end[j - 1];
    if (first != pos) {
      tile[pos] = tile[first];
      slot_[tile[pos].id].pos = pos;
    }
    pos = first;
    ++end[j - 1];
  }
  tile[pos] = e;
  slot_[id] = {cell, pos};
}

void SpatialGrid::place(const Entry& e, std::uint32_t cell) {
  std::vector<Entry>& tile = tiles_[cell / kTile];
  std::uint32_t* end = &end_[cell - cell % kTile];
  // The hole starts past the tile's last cell; every later cell hands its
  // first entry to the hole and shifts one to the right.
  auto pos = static_cast<std::uint32_t>(tile.size());
  tile.push_back(e);
  const int c = static_cast<int>(cell % kTile);
  for (int j = kTile - 1; j > c; --j) {
    const std::uint32_t first = end[j - 1];
    if (first != pos) {
      tile[pos] = tile[first];
      slot_[tile[pos].id].pos = pos;
    }
    pos = first;
    ++end[j];
  }
  ++end[c];
  tile[pos] = e;
  slot_[e.id] = {cell, pos};
}

void SpatialGrid::take(Slot s) {
  std::vector<Entry>& tile = tiles_[s.cell / kTile];
  std::uint32_t* end = &end_[s.cell - s.cell % kTile];
  const NodeId id = tile[s.pos].id;
  // Carry the hole to the end of the tile: every cell from the entry's own
  // on hands its last entry to the hole and shifts one to the left.
  std::uint32_t pos = s.pos;
  for (int j = static_cast<int>(s.cell % kTile); j < kTile; ++j) {
    const std::uint32_t last = end[j] - 1;
    if (last != pos) {
      tile[pos] = tile[last];
      slot_[tile[pos].id].pos = pos;
    }
    pos = last;
    --end[j];
  }
  tile.pop_back();
  slot_[id].cell = kNoCell;
}

void SpatialGrid::replan(const Entry* extra) {
  std::vector<Entry> all;
  all.reserve(count_);
  for (const std::vector<Entry>& tile : tiles_) all.insert(all.end(), tile.begin(), tile.end());
  if (extra != nullptr) all.push_back(*extra);
  assert(all.size() == count_);

  // The members' finite extent; a non-finite coordinate is pinned to an
  // edge of whatever box is chosen.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double x0 = kInf, x1 = -kInf, y0 = kInf, y1 = -kInf;
  for (const Entry& e : all) {
    if (std::isfinite(e.p.x)) {
      x0 = std::min(x0, e.p.x);
      x1 = std::max(x1, e.p.x);
    }
    if (std::isfinite(e.p.y)) {
      y0 = std::min(y0, e.p.y);
      y1 = std::max(y1, e.p.y);
    }
  }
  if (x0 > x1) x0 = x1 = 0.0;
  if (y0 > y1) y0 = y1 = 0.0;

  // The smallest cell base * 2^k whose box fits the budget with every
  // index representable. Doubling terminates: at an infinite cell every
  // finite coordinate is in cell 0.
  constexpr double kMaxIndex = 1 << 30;
  const double budget = std::max(kMinCells, kCellsPerMember * static_cast<double>(count_));
  double cell = std::max(base_, widest_);
  double fx0 = 0, fy0 = 0, span_x = 0, span_y = 0;
  for (;; cell *= 2.0) {
    const double inv = 1.0 / cell;
    fx0 = std::floor(x0 * inv);
    fy0 = std::floor(y0 * inv);
    const double fx1 = std::floor(x1 * inv), fy1 = std::floor(y1 * inv);
    span_x = fx1 - fx0 + 1.0 + 2 * kMargin;
    span_y = fy1 - fy0 + 1.0 + 2 * kMargin;
    const double reach = std::max(std::max(-fx0, fx1), std::max(-fy0, fy1));
    if (span_x * span_y <= budget && reach <= kMaxIndex) break;
  }
  // Slack for members drifting outwards, when the budget has room for it.
  double slack_x = std::floor(span_x / 8.0) + 1.0, slack_y = std::floor(span_y / 8.0) + 1.0;
  if ((span_x + 2 * slack_x) * (span_y + 2 * slack_y) > budget) slack_x = slack_y = 0.0;

  cell_ = cell;
  inv_cell_ = 1.0 / cell;
  ox_ = fx0 - kMargin - slack_x;
  oy_ = fy0 - kMargin - slack_y;
  w_ = static_cast<int>(span_x + 2 * slack_x);
  h_ = static_cast<int>(span_y + 2 * slack_y);
  tiles_per_row_ = (w_ + kTile - 1) / kTile;
  const std::size_t n_tiles = static_cast<std::size_t>(h_) * static_cast<std::size_t>(tiles_per_row_);
  tiles_.assign(n_tiles, std::vector<Entry>());
  end_.assign(n_tiles * kTile, 0);

  // Counting sort into cells: counts, then per-tile running ends, then
  // each cell filled from its end.
  std::vector<std::uint32_t> cell_of(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    cell_of[i] = tiled_cell(all[i].p);
    ++end_[cell_of[i]];
  }
  for (std::size_t t = 0; t < n_tiles; ++t) {
    std::uint32_t run = 0;
    for (int j = 0; j < kTile; ++j) {
      run += end_[t * kTile + j];
      end_[t * kTile + j] = run;
    }
    tiles_[t].resize(run);
  }
  std::vector<std::uint32_t> next = end_;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint32_t c = cell_of[i];
    const std::uint32_t pos = --next[c];
    tiles_[c / kTile][pos] = all[i];
    slot_[all[i].id] = {c, pos};
  }
  planned_count_ = count_;
}

void SpatialGrid::reset(double cell_size_m) {
  tiles_.clear();
  end_.clear();
  slot_.clear();
  w_ = h_ = tiles_per_row_ = 0;
  ox_ = oy_ = 0.0;
  count_ = planned_count_ = 0;
  widest_ = 0.0;
  set_base(cell_size_m);
}

void SpatialGrid::near(sim::Vec2 p, double radius, std::vector<NodeId>& out) const {
  if (count_ == 0) return;
  // Half-width of the query square in cells, kept in double: an infinite,
  // NaN (std::max passes it through) or huge radius must never reach the
  // int cast; NaN fails the compare and covers the whole box.
  const double half = std::ceil(std::max(radius, 0.0) * inv_cell_);
  const int r = half < w_ + h_ ? static_cast<int>(half) : w_ + h_;
  const int cx = col(p.x), cy = row(p.y);
  const int c0 = std::max(cx - r, 0), c1 = std::min(cx + r, w_ - 1);
  auto append = [&out](const Entry* e, const Entry* last) {
    for (; e != last; ++e) out.push_back(e->id);
  };
  for (int y = std::max(cy - r, 0); y <= std::min(cy + r, h_ - 1); ++y) {
    for (int c = c0; c <= c1;) {  // one run per tile
      const int last = std::min(c1, c - c % kTile + kTile - 1);
      visit_run(y, c, last, append);
      c = last + 1;
    }
  }
}

std::size_t SpatialGrid::memory_bytes() const {
  std::size_t bytes = tiles_.capacity() * sizeof(std::vector<Entry>) +
                      end_.capacity() * sizeof(std::uint32_t) +
                      slot_.capacity() * sizeof(Slot);
  for (const std::vector<Entry>& tile : tiles_) bytes += tile.capacity() * sizeof(Entry);
  return bytes;
}

}  // namespace iobt::net
