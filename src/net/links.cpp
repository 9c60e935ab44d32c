// Link maintenance of net::Network: the spatial grids and the edge store
// they keep exact through one routine, patch_links. Its candidate loop is
// the hottest code of the mobile workloads, and the code GCC emits for it
// depends on what else shares its translation unit (EXPERIMENTS.md N8,
// N9), so it lives apart from delivery (network.cpp) and routing
// (routing.cpp).

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "net/network.h"

namespace iobt::net {

void Network::grid_insert(NodeId id, bool gateway_grid) {
  // The grid widens its cells itself when a longer radio joins, which
  // restores the covering invariant; existing links are untouched, since
  // each depends on the min of two unchanged ranges.
  SpatialGrid& g = gateway_grid ? gateway_grid_ : layer_grids_[layers_[id]];
  g.insert(id, positions_[id], profiles_[id].range_m);
}

void Network::rebuild_grids() {
  // Every layer a node has, live or down, gets a grid; the inserts widen
  // each grid's cells to the longest radio among its live members.
  std::size_t layers = 0;
  for (const LayerId l : layers_) layers = std::max(layers, std::size_t{l} + 1);
  layer_grids_.resize(layers);
  for (SpatialGrid& g : layer_grids_) g.reset(0.0);
  gateway_grid_.reset(0.0);
  for (NodeId n = 0; n < node_count(); ++n) {
    if (!up_[n]) continue;
    grid_insert(n, false);
    if (gateway_[n]) grid_insert(n, true);
  }
}

template <typename Visit>
void Network::visit_link_candidates(NodeId id, sim::Vec2 p, Visit&& visit) const {
  const LayerId layer = layers_[id];
  layer_grids_[layer].visit_block(p, visit);
  if (!gateway_[id]) return;
  // Gateways of id's own layer were candidates in its layer grid.
  gateway_grid_.visit_block(p, [&](const SpatialGrid::Entry* e, const SpatialGrid::Entry* last) {
    for (; e != last; ++e) {
      if (layers_[e->id] != layer) visit(e, e + 1);
    }
  });
}

void Network::move_batch(std::span<const Move> moves) {
  // An unknown id throws before anything moves.
  for (const Move& m : moves) {
    if (m.id >= node_count()) throw std::out_of_range("Network::move_batch: unknown node");
  }
  // Every position and grid entry first: each block walked below shows
  // every node at its final position.
  movers_.clear();
  for (const Move& m : moves) {
    assert(std::isfinite(m.to.x) && std::isfinite(m.to.y) && "Network: non-finite position");
    const sim::Vec2 from = positions_[m.id];
    if (from == m.to) continue;
    positions_[m.id] = m.to;
    // A down node is invisible to the topology (and absent from the
    // grids): it repositions silently.
    if (!up_[m.id]) continue;
    layer_grids_[layers_[m.id]].move(m.id, from, m.to);
    if (gateway_[m.id]) gateway_grid_.move(m.id, from, m.to);
    movers_.push_back(m.id);
  }
  // A batch that flips no link leaves every cached route intact.
  bool changed = false;
  for (const NodeId id : movers_) changed |= patch_links(id);
  if (changed) invalidate_routes();
}

bool Network::patch_links(NodeId id) {
  // Every node in range of id's position lies in the block around it
  // (covering invariant, per grid). A down node walks nothing, so its
  // whole row departs below.
  const sim::Vec2 to = positions_[id];
  const std::vector<Topology::Neighbor>& row = links_.neighbors(id);
  for (const Topology::Neighbor& nb : row) linked_[nb.id] = 1;
  // One pass over the candidates' packed entries, no branch on a
  // candidate's outcome: every candidate's entry is written and kept only
  // if its link flips. in_range's line-of-sight test runs only on
  // candidates within range. `id` itself is a candidate with no link to
  // itself. The flip buffer grows to the longest block walk seen, never
  // to the grid's size.
  const double range = profiles_[id].range_m;
  std::size_t n_flips = 0, retained = 0;
  const auto test = [&](const SpatialGrid::Entry* e, const SpatialGrid::Entry* last) {
    std::size_t flipped = n_flips, kept = retained;  // in registers for the loop
    const std::size_t need = flipped + static_cast<std::size_t>(last - e);
    if (patch_scratch_.size() < need) [[unlikely]] patch_scratch_.resize(need);
    LinkPatch* flips = patch_scratch_.data();
    for (; e != last; ++e) {
      const bool now = channel_.in_range(to, range, e->p, e->range_m) & (e->id != id);
      const bool was = linked_[e->id] != 0;
      flips[flipped] = {e->id, now};
      flipped += was != now;
      kept += was & now;
    }
    n_flips = flipped;
    retained = kept;
  };
  if (up_[id]) visit_link_candidates(id, to, test);
  for (const Topology::Neighbor& nb : row) linked_[nb.id] = 0;
  // Retained links keep the weights of older positions until a reader
  // syncs them (sync_link_weights).
  if (retained != 0 && !stale_flag_[id]) {
    stale_flag_[id] = 1;
    stale_.push_back(id);
  }
  // Removals first, so no row holds a node's old and new neighbours at
  // once: row capacities follow the larger of the two, not their sum.
  const LinkPatch* flips = patch_scratch_.data();
  for (std::size_t i = 0; i < n_flips; ++i) {
    if (!flips[i].now) links_.remove_edge(id, flips[i].other);
  }
  // The row now holds the retained links and any neighbour the walk did
  // not meet: one that left the block, one a gateway demotion cut off, or
  // every neighbour of a node gone down. Found by count, so the loop above
  // stores nothing per row member; rare. The re-test is the whole link
  // predicate, so it keeps exactly the retained links.
  const bool departed = row.size() != retained;
  if (departed) [[unlikely]] {
    for (std::size_t i = row.size(); i-- > 0;) {
      const NodeId other = row[i].id;
      if (!up_[id] || !link_allowed(id, other) ||
          !channel_.in_range(to, range, positions_[other], profiles_[other].range_m)) {
        links_.remove_edge(id, other);
      }
    }
  }
  for (std::size_t i = 0; i < n_flips; ++i) {
    const NodeId other = flips[i].other;
    if (flips[i].now) links_.add_edge_sorted(id, other, sim::distance(to, positions_[other]));
  }
  return n_flips != 0 || departed;
}

}  // namespace iobt::net
