// Link maintenance of net::Network: the spatial grids and the edge store
// they keep exact. The move patch's candidate loop is the hottest code of
// the mobile workloads, and the code GCC emits for it depends on what else
// shares its translation unit (EXPERIMENTS.md N8, N9), so it lives apart
// from delivery (network.cpp) and routing (routing.cpp).

#include <algorithm>
#include <cassert>

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

void Network::gather_link_candidates(NodeId id, sim::Vec2 from, sim::Vec2 to,
                                     std::vector<NodeId>& out) const {
  const LayerId layer = layers_[id];
  layer_grids_[layer].neighborhood_union(from, to, out);
  if (!gateway_[id]) return;
  const std::size_t mark = out.size();
  gateway_grid_.neighborhood_union(from, to, out);
  out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end(),
                           [&](NodeId n) { return layers_[n] == layer; }),
            out.end());
}

bool Network::patch_links_for_move(NodeId id, sim::Vec2 from, sim::Vec2 to) {
  // Any node whose in-range relationship with `id` can flip lies in id's
  // blocks around `from` or `to` (covering invariant, per grid). The grids
  // are not touched until the walk below is done.
  const std::vector<Topology::Neighbor>& row = links_.neighbors(id);
  for (const Topology::Neighbor& nb : row) linked_[nb.id] = 1;
  // One pass over the candidates' packed entries, no branch on a
  // candidate's outcome: every candidate's entry is written and kept only
  // if its link flips. in_range's line-of-sight test runs only on
  // candidates within range. `id` itself is a candidate with no link to
  // itself. The flip buffer grows to the longest span walk seen, never to
  // the grid's size.
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
  const LayerId layer = layers_[id];
  layer_grids_[layer].visit_union(from, to, test);
  if (gateway_[id]) {
    // Gateways of id's own layer were candidates in its layer grid.
    gateway_grid_.visit_union(from, to, [&](const SpatialGrid::Entry* e,
                                            const SpatialGrid::Entry* last) {
      for (; e != last; ++e) {
        if (layers_[e->id] != layer) test(e, e + 1);
      }
    });
  }
  for (const Topology::Neighbor& nb : row) linked_[nb.id] = 0;
  const LinkPatch* flips = patch_scratch_.data();
  // Covering invariant: every neighbor was a candidate.
  assert(retained + static_cast<std::size_t>(std::count_if(
                        flips, flips + n_flips,
                        [](const LinkPatch& p) { return !p.now; })) == row.size());
  // Retained links keep the weights of the old position until a reader
  // syncs them (sync_link_weights).
  if (retained != 0 && !stale_flag_[id]) {
    stale_flag_[id] = 1;
    stale_.push_back(id);
  }
  for (std::size_t i = 0; i < n_flips; ++i) {
    const LinkPatch& p = flips[i];
    if (p.now) {
      links_.add_edge_sorted(id, p.other, sim::distance(to, positions_[p.other]));
    } else {
      links_.remove_edge(id, p.other);
    }
  }
  return n_flips != 0;
}

void Network::attach_links(NodeId id) {
  const sim::Vec2 p = positions_[id];
  const RadioProfile& pr = profiles_[id];
  scratch_.clear();
  gather_link_candidates(id, p, p, scratch_);
  for (const NodeId other : scratch_) {
    if (other == id) continue;
    if (channel_.in_range(p, pr, positions_[other], profiles_[other])) {
      links_.add_edge_sorted(id, other, sim::distance(p, positions_[other]));
    }
  }
}

void Network::detach_links(NodeId id) {
  // Copy the ids out first: remove_edge mutates the list being walked.
  scratch_.clear();
  for (const Topology::Neighbor& n : links_.neighbors(id)) scratch_.push_back(n.id);
  for (const NodeId other : scratch_) links_.remove_edge(id, other);
}

Topology Network::full_connectivity() const {
  // Edges are collected into a flat scratch list (reused across restores,
  // so the build allocates nothing once warm) and the Topology is built in
  // one bulk pass with exact-size adjacency reserves. The list order (a
  // ascending, then b > a ascending) leaves every adjacency list id-sorted,
  // the invariant the patched store keeps, so each node's candidates are
  // sorted before they are tested.
  edge_scratch_.clear();
  for (NodeId a = 0; a < node_count(); ++a) {
    if (!up_[a]) continue;
    const sim::Vec2 p = positions_[a];
    scratch_.clear();
    gather_link_candidates(a, p, p, scratch_);
    std::sort(scratch_.begin(), scratch_.end());
    for (const NodeId b : scratch_) {
      if (b <= a) continue;
      if (channel_.in_range(p, profiles_[a], positions_[b], profiles_[b])) {
        edge_scratch_.push_back({a, b, sim::distance(p, positions_[b])});
      }
    }
  }
  return Topology(node_count(), edge_scratch_);
}

}  // namespace iobt::net
