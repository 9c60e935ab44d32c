#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

namespace iobt::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

bool ShortestPaths::reachable(NodeId v) const {
  return v < dist.size() && dist[v] < kInf;
}

std::vector<NodeId> ShortestPaths::path_to(NodeId v) const {
  std::vector<NodeId> out;
  path_to(v, out);
  return out;
}

void ShortestPaths::path_to(NodeId v, std::vector<NodeId>& out) const {
  out.clear();
  if (!reachable(v)) return;
  NodeId cur = v;
  out.push_back(cur);
  while (cur != source) {
    const auto& p = parent[cur];
    if (!p) {  // defensive: broken parent chain
      out.clear();
      return;
    }
    cur = *p;
    out.push_back(cur);
  }
  std::reverse(out.begin(), out.end());
}

NodeId Topology::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Topology::add_edge(NodeId a, NodeId b, double weight) {
  if (a == b) return;
  if (a >= node_count() || b >= node_count()) {
    throw std::out_of_range("Topology::add_edge: node id out of range");
  }
  for (auto& n : adjacency_[a]) {
    if (n.id == b) {
      // Update existing edge weight on both endpoints.
      n.weight = weight;
      for (auto& m : adjacency_[b]) {
        if (m.id == a) m.weight = weight;
      }
      return;
    }
  }
  adjacency_[a].push_back({b, weight});
  adjacency_[b].push_back({a, weight});
  ++edge_count_;
}

void Topology::add_edge_unique(NodeId a, NodeId b, double weight) {
  if (a == b) return;
  if (a >= node_count() || b >= node_count()) {
    throw std::out_of_range("Topology::add_edge_unique: node id out of range");
  }
  assert(!has_edge(a, b) && "add_edge_unique: pair already present");
  adjacency_[a].push_back({b, weight});
  adjacency_[b].push_back({a, weight});
  ++edge_count_;
}

void Topology::add_edge_sorted(NodeId a, NodeId b, double weight) {
  if (a == b) return;
  if (a >= node_count() || b >= node_count()) {
    throw std::out_of_range("Topology::add_edge_sorted: node id out of range");
  }
  assert(!has_edge(a, b) && "add_edge_sorted: pair already present");
  auto insert_sorted = [](std::vector<Neighbor>& v, NodeId id, double w) {
    auto it = std::lower_bound(
        v.begin(), v.end(), id,
        [](const Neighbor& n, NodeId target) { return n.id < target; });
    v.insert(it, Neighbor{id, w});
  };
  insert_sorted(adjacency_[a], b, weight);
  insert_sorted(adjacency_[b], a, weight);
  ++edge_count_;
}

void Topology::update_edge_weight(NodeId a, NodeId b, double weight) {
  assert(a < node_count() && b < node_count() &&
         "update_edge_weight: node id out of range");
  auto set_in = [weight](std::vector<Neighbor>& row, NodeId id) {
    assert(std::is_sorted(row.begin(), row.end(),
                          [](const Neighbor& x, const Neighbor& y) { return x.id < y.id; }) &&
           "update_edge_weight: adjacency list not id-sorted");
    auto it = std::lower_bound(
        row.begin(), row.end(), id,
        [](const Neighbor& n, NodeId target) { return n.id < target; });
    assert(it != row.end() && it->id == id && "update_edge_weight: edge absent");
    if (it != row.end() && it->id == id) it->weight = weight;
  };
  set_in(adjacency_[a], b);
  set_in(adjacency_[b], a);
}

void Topology::remove_edge(NodeId a, NodeId b) {
  if (a >= node_count() || b >= node_count()) return;
  auto erase_from = [](std::vector<Neighbor>& v, NodeId id) {
    auto it = std::find_if(v.begin(), v.end(), [id](const Neighbor& n) { return n.id == id; });
    if (it == v.end()) return false;
    v.erase(it);
    return true;
  };
  if (erase_from(adjacency_[a], b)) {
    erase_from(adjacency_[b], a);
    --edge_count_;
  }
}

bool Topology::has_edge(NodeId a, NodeId b) const {
  return edge_weight(a, b).has_value();
}

std::optional<double> Topology::edge_weight(NodeId a, NodeId b) const {
  if (a >= node_count() || b >= node_count()) return std::nullopt;
  for (const auto& n : adjacency_[a]) {
    if (n.id == b) return n.weight;
  }
  return std::nullopt;
}

std::vector<Edge> Topology::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (NodeId a = 0; a < node_count(); ++a) {
    for (const auto& n : adjacency_[a]) {
      if (a < n.id) out.push_back({a, n.id, n.weight});
    }
  }
  return out;
}

ShortestPaths Topology::shortest_paths(NodeId source) const {
  const std::size_t n = node_count();
  ShortestPaths sp;
  sp.source = source;
  sp.dist.assign(n, kInf);
  sp.parent.assign(n, std::nullopt);
  if (source >= n) return sp;
  sp.dist[source] = 0.0;

  using Item = std::pair<double, NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d > sp.dist[v]) continue;  // stale entry
    for (const auto& nb : adjacency_[v]) {
      assert(nb.weight >= 0.0 && "Dijkstra requires non-negative weights");
      const double cand = d + nb.weight;
      if (cand < sp.dist[nb.id]) {
        sp.dist[nb.id] = cand;
        sp.parent[nb.id] = v;
        heap.push({cand, nb.id});
      }
    }
  }
  return sp;
}

std::vector<int> Topology::hop_distances(NodeId source) const {
  std::vector<int> dist(node_count(), -1);
  if (source >= node_count()) return dist;
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const auto& nb : adjacency_[v]) {
      if (dist[nb.id] < 0) {
        dist[nb.id] = dist[v] + 1;
        q.push(nb.id);
      }
    }
  }
  return dist;
}

std::vector<int> Topology::components() const {
  std::vector<int> label(node_count(), -1);
  int next = 0;
  for (NodeId s = 0; s < node_count(); ++s) {
    if (label[s] >= 0) continue;
    label[s] = next;
    std::queue<NodeId> q;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (const auto& nb : adjacency_[v]) {
        if (label[nb.id] < 0) {
          label[nb.id] = next;
          q.push(nb.id);
        }
      }
    }
    ++next;
  }
  return label;
}

int Topology::component_count() const {
  const auto labels = components();
  return labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;
}

Topology Topology::grid(std::size_t w, std::size_t h) {
  Topology t(w * h);
  auto id = [w](std::size_t x, std::size_t y) { return static_cast<NodeId>(y * w + x); };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) t.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < h) t.add_edge(id(x, y), id(x, y + 1));
    }
  }
  return t;
}

Topology Topology::ring(std::size_t n) {
  Topology t(n);
  if (n < 2) return t;
  for (NodeId i = 0; i < n; ++i) t.add_edge(i, static_cast<NodeId>((i + 1) % n));
  return t;
}

Topology Topology::star(std::size_t n) {
  Topology t(n);
  for (NodeId i = 1; i < n; ++i) t.add_edge(0, i);
  return t;
}

Topology Topology::k_nearest(const std::vector<sim::Vec2>& positions, std::size_t k) {
  const std::size_t n = positions.size();
  Topology t(n);
  if (n < 2 || k == 0) return t;
  const std::size_t kk = std::min(k, n - 1);

  for (NodeId a = 0; a < n; ++a) {
    // Collect distances to all other nodes, pick k smallest.
    std::vector<std::pair<double, NodeId>> d;
    d.reserve(n - 1);
    for (NodeId b = 0; b < n; ++b) {
      if (b != a) d.push_back({sim::distance(positions[a], positions[b]), b});
    }
    std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(kk), d.end());
    for (std::size_t i = 0; i < kk; ++i) t.add_edge(a, d[i].second, d[i].first);
  }
  return t;
}

std::size_t Topology::memory_bytes() const {
  std::size_t bytes = adjacency_.capacity() * sizeof(std::vector<Neighbor>);
  for (const auto& list : adjacency_) bytes += list.capacity() * sizeof(Neighbor);
  return bytes;
}

}  // namespace iobt::net
