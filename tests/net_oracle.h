#pragma once
// Brute-force reference for net::Network connectivity, shared by the net
// and property tests and by bench_network.
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

}  // namespace iobt::testing
