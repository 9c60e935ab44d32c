#pragma once
// Brute-force references for net::Network, shared by the net, property
// and checkpoint tests and by bench_network and bench_checkpoint:
// connectivity (brute_connectivity), the bit-for-bit comparison of two
// graphs (topology_difference, store_matches_oracle), and route answers
// (EagerRouteCache).
//
// Network has one production path: grid-enumerated candidates feeding an
// edge store patched in place on every move, liveness flip and gateway
// flip. This oracle recomputes the same graph from scratch with an
// O(N^2) scan over every live pair, using only Network's public accessors,
// so it shares no enumeration or maintenance code with what it checks.
// Edges are added in (a ascending, then b > a ascending) order, which
// leaves every adjacency list sorted by neighbor id — the order the store
// keeps — so neighbor order and exact weights compare bit for bit.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
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
  net::Topology t(n);
  for (net::NodeId a = 0; a < n; ++a) {
    if (!up[a]) continue;
    for (net::NodeId b = a + 1; b < n; ++b) {
      if (!up[b]) continue;
      // Same layer, or a gateway at both ends.
      if (layer[a] != layer[b] && !(gateway[a] && gateway[b])) continue;
      if (!channel.in_range(pos[a], radio[a], pos[b], radio[b])) continue;
      t.add_edge_unique(a, b, sim::distance(pos[a], pos[b]));
    }
  }
  return t;
}

/// The first difference between two graphs, bit for bit: node and edge
/// counts, then every row's neighbour ids in order (Dijkstra tie-breaks)
/// and exact weights. Empty when they are identical.
inline std::string topology_difference(const net::Topology& got, const net::Topology& want) {
  if (got.node_count() != want.node_count()) {
    return "node count " + std::to_string(got.node_count()) + " != " +
           std::to_string(want.node_count());
  }
  if (got.edge_count() != want.edge_count()) {
    return "edge count " + std::to_string(got.edge_count()) + " != " +
           std::to_string(want.edge_count());
  }
  for (net::NodeId v = 0; v < want.node_count(); ++v) {
    const auto& gn = got.neighbors(v);
    const auto& wn = want.neighbors(v);
    if (gn.size() != wn.size()) {
      return "node " + std::to_string(v) + " degree " + std::to_string(gn.size()) +
             " != " + std::to_string(wn.size());
    }
    for (std::size_t i = 0; i < wn.size(); ++i) {
      if (gn[i].id != wn[i].id || gn[i].weight != wn[i].weight) {
        char line[160];
        std::snprintf(line, sizeof line, "node %u slot %zu: (%u, %.17g) != (%u, %.17g)",
                      static_cast<unsigned>(v), i, static_cast<unsigned>(gn[i].id),
                      gn[i].weight, static_cast<unsigned>(wn[i].id), wn[i].weight);
        return line;
      }
    }
  }
  return {};
}

/// True iff net's edge store, after its weight sync, is bit for bit
/// brute_connectivity(net).
inline bool store_matches_oracle(const net::Network& net) {
  return topology_difference(net.topology_view(), brute_connectivity(net)).empty();
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
