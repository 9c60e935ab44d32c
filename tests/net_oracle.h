#pragma once
// Brute-force references for net::Network, shared by the net and property
// tests and by bench_network: connectivity (brute_connectivity) and route
// answers (EagerRouteCache).
//
// Network has one production path: grid-enumerated candidates feeding an
// edge store patched in place on every move, liveness flip and gateway
// flip. This oracle recomputes the same graph from scratch with an
// O(N^2) scan over every live pair, using only Network's public accessors,
// so it shares no enumeration or maintenance code with what it checks.
// Edges are emitted in (a ascending, then b > a ascending) order, which
// leaves every adjacency list sorted by neighbor id — the order the store
// keeps — so neighbor order and exact weights compare bit for bit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/channel.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/geometry.h"

namespace iobt::testing {

inline net::Topology brute_connectivity(const net::Network& net) {
  // Copy the per-node fields out once: the pair loop is O(N^2).
  const std::size_t n = net.node_count();
  std::vector<sim::Vec2> pos(n);
  std::vector<net::RadioProfile> radio(n);
  std::vector<bool> up(n), gateway(n);
  std::vector<net::LayerId> layer(n);
  for (net::NodeId v = 0; v < n; ++v) {
    pos[v] = net.position(v);
    radio[v] = net.profile(v);
    up[v] = net.node_up(v);
    gateway[v] = net.is_gateway(v);
    layer[v] = net.layer(v);
  }
  const net::ChannelModel& channel = net.channel();
  std::vector<net::Edge> edges;
  for (net::NodeId a = 0; a < n; ++a) {
    if (!up[a]) continue;
    for (net::NodeId b = a + 1; b < n; ++b) {
      if (!up[b]) continue;
      // Same layer, or a gateway at both ends.
      if (layer[a] != layer[b] && !(gateway[a] && gateway[b])) continue;
      if (!channel.in_range(pos[a], radio[a], pos[b], radio[b])) continue;
      edges.push_back({a, b, sim::distance(pos[a], pos[b])});
    }
  }
  return net::Topology(n, edges);
}

/// Reference for Network's route answers. Network answers a lookup from a
/// destination-rooted tree shared by every source when that path is
/// provably the source's own, and otherwise grows the source's Dijkstra on
/// demand, stops at the destination, resumes it on later lookups and
/// freezes the weights it started under; this oracle instead runs one full
/// shortest_paths, on brute_connectivity(), at the first lookup per source
/// after an epoch bump. The two must answer alike. The graph comes from
/// positions, not from Network's edge store: reading the store would sync
/// its weights and so hide a lookup that skips the sync. path mirrors which
/// calls touch Network's cache (its bounds checks and local delivery come
/// first), so both see a source's first lookup at the same moment. A
/// checkpoint restore rebuilds Network's cache from scratch: call clear()
/// after one.
class EagerRouteCache {
 public:
  explicit EagerRouteCache(const net::Network& net) : net_(net) {}

  void clear() { trees_.clear(); }

  /// The hop sequence route_and_send(src, dst) must take, src and dst
  /// included; empty when it must drop. src == dst is delivered locally
  /// and never consults a tree.
  std::vector<net::NodeId> path(net::NodeId src, net::NodeId dst) {
    const std::size_t n = net_.node_count();
    if (src >= n || dst >= n) return {};
    if (src == dst) return net_.node_up(src) ? std::vector<net::NodeId>{src} : std::vector<net::NodeId>{};
    return tree(src).path_to(dst);
  }

 private:
  struct Tree {
    bool valid = false;
    std::uint64_t epoch = 0;
    net::ShortestPaths paths;
  };

  const net::ShortestPaths& tree(net::NodeId src) {
    if (trees_.size() <= src) trees_.resize(src + 1);
    Tree& t = trees_[src];
    if (!t.valid || t.epoch != net_.topology_epoch()) {
      t.paths = brute_connectivity(net_).shortest_paths(src);
      t.epoch = net_.topology_epoch();
      t.valid = true;
    }
    return t.paths;
  }

  const net::Network& net_;
  std::vector<Tree> trees_;
};

}  // namespace iobt::testing
