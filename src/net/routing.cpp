// Network's route lookups: destination trees shared by every source, the
// exactness margin, and source trees (see network.h, route_and_send).
//
// A translation unit of its own on purpose. Compiled into network.cpp,
// this code changed GCC's inlining and register allocation of the move
// patch, now Network::patch_links in links.cpp (a push_back went out of
// line and the candidate loop gained a spill), and epidemic, which never
// routes, read 20% slower (EXPERIMENTS.md N8). Apart, network.cpp
// compiled to the same link-maintenance code as before.

#include "net/network.h"

#include <algorithm>
#include <functional>
#include <limits>

namespace iobt::net {

void Network::start_tree(RouteTree& t, NodeId root) {
  const std::size_t n = node_count();
  t.paths.source = root;
  t.paths.dist.assign(n, std::numeric_limits<double>::infinity());
  t.paths.parent.assign(n, std::nullopt);
  t.settled.assign(n, 0);
  t.paths.dist[root] = 0.0;
  t.frontier.assign(1, {0.0, root});
}

void Network::grow_tree(RouteTree& t, NodeId until) {
  // The same pops and relaxations as Topology::shortest_paths, stopped
  // once `until` is settled: a node is settled by its unique (dist, id)
  // entry, and every later entry for it is stale.
  constexpr std::greater<> kMinHeap;
  ShortestPaths& sp = t.paths;
  while (!t.settled[until] && !t.frontier.empty()) {
    std::pop_heap(t.frontier.begin(), t.frontier.end(), kMinHeap);
    const auto [d, v] = t.frontier.back();
    t.frontier.pop_back();
    if (t.settled[v]) continue;
    t.settled[v] = 1;
    ++route_stats_.nodes_settled;
    const std::vector<Topology::Neighbor>& row = links_.neighbors(v);
    const double* frozen = t.frozen ? t.frozen->weight.data() + t.frozen->row[v] : nullptr;
    for (std::size_t k = 0; k < row.size(); ++k) {
      const NodeId u = row[k].id;
      const double cand = d + (frozen ? frozen[k] : row[k].weight);
      if (cand < sp.dist[u]) {
        sp.dist[u] = cand;
        sp.parent[u] = v;
        t.frontier.emplace_back(cand, u);
        std::push_heap(t.frontier.begin(), t.frontier.end(), kMinHeap);
      }
    }
  }
  if (t.frontier.empty()) t.frozen.reset();  // complete: reads no weight again
}

bool Network::margin_holds(const RouteTree& t, NodeId src) const {
  const std::vector<double>& dist = t.paths.dist;
  // Every node not yet settled will settle at or above the frontier's
  // minimum; with an empty frontier it is unreachable.
  const double unsettled = t.frontier.empty() ? std::numeric_limits<double>::infinity()
                                              : t.frontier.front().first;
  // A path sum of h weights is off by at most ~h * 2^-53 of its value.
  const double delta = 1e-9 * (dist[src] + 1.0);
  for (NodeId v = src; v != t.paths.source;) {
    const NodeId next = *t.paths.parent[v];
    for (const Topology::Neighbor& nb : links_.neighbors(v)) {
      if (nb.id == next) continue;
      const double du = t.settled[nb.id] ? dist[nb.id] : unsettled;
      if (!(nb.weight + du > dist[v] + delta)) return false;
    }
    v = next;
  }
  return true;
}

Network::RouteTree* Network::live_dest_tree(NodeId dst) {
  // Live trees share one key: a new epoch or weight version retires them
  // all at once, and their buffers are reused.
  if (dest_live_ != 0 && (dest_trees_[0].epoch != topology_epoch_ ||
                          dest_trees_[0].version != weight_version_)) {
    dest_live_ = 0;
  }
  for (std::size_t i = 0; i < dest_live_; ++i) {
    if (dest_trees_[i].paths.source == dst) return &dest_trees_[i];
  }
  return nullptr;
}

Network::RouteTree& Network::start_dest_tree(NodeId dst) {
  if (dest_live_ == dest_trees_.size()) dest_trees_.emplace_back();
  RouteTree& t = dest_trees_[dest_live_++];
  t.epoch = topology_epoch_;
  t.version = weight_version_;
  start_tree(t, dst);
  ++route_stats_.dest_tree_builds;
  return t;
}

void Network::find_route(NodeId src, NodeId dst, std::vector<NodeId>& route) {
  sync_link_weights();
  ++route_stats_.lookups;
  if (!route_cache_[src]) route_cache_[src] = std::make_unique<RouteTree>();
  RouteTree& own = *route_cache_[src];
  if (own.epoch != topology_epoch_) {
    // Register src: its answers this epoch are the Dijkstra over the
    // weights of this version. The tree stays lazy until it must grow.
    own.epoch = topology_epoch_;
    own.version = weight_version_;
    own.settled.clear();
    own.started_dest = false;
    own.frontier.assign(1, {0.0, src});
    epoch_trees_.push_back(src);
  }
  if (own.settled.empty() && own.version == weight_version_) {
    // The live weights are src's: dst's tree answers if its path is
    // provably the one src's Dijkstra would take. A source starts at most
    // one destination tree per registration: one that fans out to
    // destinations nobody else routes to resumes a tree of its own.
    RouteTree* t = live_dest_tree(dst);
    if (!t && !own.started_dest) {
      t = &start_dest_tree(dst);
      own.started_dest = true;
    }
    if (t) {
      grow_tree(*t, src);
      route.clear();
      if (!t->settled[src] || margin_holds(*t, src)) {
        // Links are symmetric: a src dst's tree never reaches has no route.
        ++route_stats_.dest_answers;
        if (!t->settled[src]) return;
        for (NodeId v = src; v != dst; v = *t->paths.parent[v]) route.push_back(v);
        route.push_back(dst);
        return;
      }
      ++route_stats_.margin_fallbacks;
    }
  }
  if (own.settled.empty()) {
    // Keeps `frozen` if a sync froze the registered tree.
    start_tree(own, src);
    ++route_stats_.source_tree_builds;
  }
  grow_tree(own, dst);
  own.paths.path_to(dst, route);
}

bool Network::route_and_send(NodeId src, NodeId dst, Message msg) {
  msg.src = src;
  msg.dst = dst;
  msg.sent_at = sim_.now();
  // Unknown endpoints: no route by definition, instead of letting the
  // slab .at() throw out of the send path.
  if (src >= node_count() || dst >= node_count()) {
    drop(DropReason::kNoRoute);
    return false;
  }
  if (src == dst) {
    // Local delivery, zero hops — but a dead radio delivers nothing, not
    // even to itself.
    if (!up_[src]) {
      drop(DropReason::kNodeDown);
      return false;
    }
    if (handlers_[src]) handlers_[src](msg);
    return true;
  }
  std::vector<NodeId> route;
  find_route(src, dst, route);
  if (route.size() < 2) {
    drop(DropReason::kNoRoute);
    return false;
  }
  // route = [src, n1, n2, ..., dst]; first hop src->n1, then n2..dst.
  const NodeId first = route[1];
  return transmit(src, first, std::move(msg), std::move(route), 2);
}

}  // namespace iobt::net
