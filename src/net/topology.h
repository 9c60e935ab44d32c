#pragma once
// Undirected weighted graphs: the connectivity structure of an IoBT.
//
// Topology is a value type (cheap enough to copy for what-if analysis).
// It provides the graph algorithms every other module leans on: shortest
// paths, connected components, and standard generators (grids for urban
// street layouts, stars/rings/k-nearest for learning-topology sweeps).

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.h"
#include "sim/geometry.h"

namespace iobt::net {

/// An undirected edge with a metric (latency, cost, ...) attached.
struct Edge {
  NodeId a = 0;
  NodeId b = 0;
  double weight = 1.0;
};

/// Result of a shortest-path computation from one source.
struct ShortestPaths {
  NodeId source = 0;
  /// dist[v] = total weight of the shortest source->v path; infinity if
  /// unreachable.
  std::vector<double> dist;
  /// parent[v] = predecessor of v on the shortest path; source's parent and
  /// unreachable nodes' parents are nullopt.
  std::vector<std::optional<NodeId>> parent;

  bool reachable(NodeId v) const;
  /// Reconstructs the source->v node sequence (inclusive). Empty if
  /// unreachable.
  std::vector<NodeId> path_to(NodeId v) const;
  /// Same, written into `out` (cleared first), so a caller can reuse its
  /// buffer.
  void path_to(NodeId v, std::vector<NodeId>& out) const;
};

class Topology {
 public:
  Topology() = default;
  explicit Topology(std::size_t node_count) : adjacency_(node_count) {}

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Appends a new isolated node; returns its id.
  NodeId add_node();

  /// Adds an undirected edge. Parallel edges are rejected (weight of the
  /// existing edge is updated instead). Self-loops are ignored.
  void add_edge(NodeId a, NodeId b, double weight = 1.0);
  /// add_edge without the parallel-edge scan, for callers that enumerate
  /// each unordered pair at most once (connectivity snapshots, geometric
  /// generators). A same-order call sequence yields adjacency lists
  /// identical to add_edge's; feeding it a duplicate pair corrupts the
  /// edge count, so it asserts in debug builds.
  void add_edge_unique(NodeId a, NodeId b, double weight = 1.0);
  /// Adds an undirected edge, inserting each endpoint into the other's
  /// adjacency list at its id-sorted position. For graphs whose adjacency
  /// lists are maintained in ascending-id order (the Network's incremental
  /// connectivity store), this keeps insertion-order-independent adjacency
  /// — and thus Dijkstra tie-breaks — identical to add_edge_unique calls
  /// in (a, b > a) pair order. The pair must not already be present
  /// (asserts in debug builds).
  void add_edge_sorted(NodeId a, NodeId b, double weight = 1.0);
  /// Updates the weight of an edge that MUST already exist (asserts in
  /// debug builds): unlike add_edge it can never append. Finds
  /// each endpoint by binary search, so both adjacency lists MUST be
  /// sorted ascending by neighbor id — the order add_edge_sorted keeps.
  /// The edge set is untouched: a caller that caches searches over this
  /// graph must preserve the old weights itself before calling this
  /// (Network's weight sync freezes its growing route trees first).
  void update_edge_weight(NodeId a, NodeId b, double weight);
  /// Removes the edge if present.
  void remove_edge(NodeId a, NodeId b);
  bool has_edge(NodeId a, NodeId b) const;
  /// Weight of the edge, or nullopt if absent.
  std::optional<double> edge_weight(NodeId a, NodeId b) const;

  /// Neighbors of `v` with edge weights.
  struct Neighbor {
    NodeId id;
    double weight;
  };
  const std::vector<Neighbor>& neighbors(NodeId v) const { return adjacency_.at(v); }
  std::size_t degree(NodeId v) const { return adjacency_.at(v).size(); }

  /// All edges, each reported once with a <= b.
  std::vector<Edge> edges() const;

  /// Dijkstra from `source` using edge weights (must be non-negative).
  ShortestPaths shortest_paths(NodeId source) const;
  /// BFS hop distance from `source` (ignores weights).
  std::vector<int> hop_distances(NodeId source) const;

  /// Connected-component label per node (labels are 0-based, dense).
  std::vector<int> components() const;
  int component_count() const;
  bool connected() const { return node_count() == 0 || component_count() == 1; }

  // --- Generators -------------------------------------------------------

  /// w x h grid with unit-weight edges (urban street abstraction).
  static Topology grid(std::size_t w, std::size_t h);

  /// Ring of n nodes.
  static Topology ring(std::size_t n);

  /// Star: node 0 is the hub.
  static Topology star(std::size_t n);

  /// Each node connected to its k nearest neighbors by position (ties
  /// broken by lower id).
  static Topology k_nearest(const std::vector<sim::Vec2>& positions, std::size_t k);

  /// Bytes held by the adjacency structure (vector capacities x element
  /// sizes, not allocator truth). Deterministic for a given operation
  /// sequence, which is what memory-budget benches need.
  std::size_t memory_bytes() const;

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace iobt::net
