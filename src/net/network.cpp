#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "sim/wire.h"

namespace iobt::net {

std::string to_string(DropReason r) {
  switch (r) {
    case DropReason::kOutOfRange: return "out_of_range";
    case DropReason::kChannelLoss: return "channel_loss";
    case DropReason::kNodeDown: return "node_down";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kQueueOverflow: return "queue_overflow";
    case DropReason::kLayerBlocked: return "layer_blocked";
  }
  return "unknown";
}

Network::Network(sim::Simulator& simulator, ChannelModel channel, sim::Rng rng)
    : sim_(simulator), channel_(std::move(channel)), rng_(rng),
      deliver_tag_(simulator.intern("net.deliver")),
      trace_frame_(simulator.tracer().intern("net.frame", "net")),
      trace_drop_(simulator.tracer().intern("net.drop", "net")),
      trace_in_flight_(simulator.tracer().intern("net.frames_in_flight", "net")) {
  resolve_metric_handles();
  sim_.checkpoint().register_participant(this);
}

Network::~Network() {
  const std::vector<bool> free_slot = free_slots();
  for (std::uint32_t s = 0; s < pending_.size(); ++s) {
    if (!free_slot[s]) sim_.cancel(pending_[s].event);
  }
  sim_.checkpoint().unregister(this);
}

void Network::resolve_metric_handles() {
  // Hot-path metric handles: a transmitted frame costs two pointer bumps
  // instead of two string-keyed map walks; digests are unaffected.
  bytes_sent_counter_ = metrics_.counter_handle("net.bytes_sent");
  frames_sent_counter_ = metrics_.counter_handle("net.frames_sent");
  frames_delivered_counter_ = metrics_.counter_handle("net.frames_delivered");
  delivery_latency_summary_ = metrics_.summary_handle("net.delivery_latency_s");
  for (const DropReason r :
       {DropReason::kOutOfRange, DropReason::kChannelLoss, DropReason::kNodeDown,
        DropReason::kNoRoute, DropReason::kQueueOverflow,
        DropReason::kLayerBlocked}) {
    drop_counters_[static_cast<std::size_t>(r)] =
        metrics_.counter_handle("net.drop." + to_string(r));
  }
}

NodeId Network::add_node(sim::Vec2 position, RadioProfile profile, LayerId layer) {
  assert(std::isfinite(position.x) && std::isfinite(position.y) &&
         std::isfinite(profile.range_m) && "Network::add_node: non-finite position or range");
  const auto id = static_cast<NodeId>(positions_.size());
  positions_.push_back(position);
  profiles_.push_back(profile);
  handlers_.emplace_back();
  up_.push_back(1);
  layers_.push_back(layer);
  gateway_.push_back(0);
  bytes_sent_.push_back(0);
  tx_free_at_.push_back(sim::SimTime::zero());
  route_cache_.emplace_back();
  stale_flag_.push_back(0);
  linked_.push_back(0);
  if (layer >= layer_grids_.size()) layer_grids_.resize(std::size_t{layer} + 1, SpatialGrid(0.0));
  // A grid rebuilt for a longer radio leaves the edge store untouched:
  // every existing link depends on the min of two unchanged ranges.
  grid_insert(id, false);
  links_.add_node();
  patch_links(id);
  invalidate_routes();
  return id;
}

void Network::set_handler(NodeId id, Handler h) { handlers_.at(id) = std::move(h); }

void Network::set_node_up(NodeId id, bool up) {
  if ((up_.at(id) != 0) == up) return;
  up_[id] = up ? 1 : 0;
  if (up) {
    grid_insert(id, false);
    if (gateway_[id]) grid_insert(id, true);
  } else {
    layer_grids_[layers_[id]].remove(id, positions_[id]);
    if (gateway_[id]) gateway_grid_.remove(id, positions_[id]);
  }
  patch_links(id);
  invalidate_routes();
}

void Network::set_gateway(NodeId id, bool on) {
  if ((gateway_.at(id) != 0) == on) return;
  gateway_[id] = on ? 1 : 0;
  // A down node is in no grid; its patch finds an empty row and no walk.
  if (up_[id]) {
    if (on) {
      grid_insert(id, true);
    } else {
      gateway_grid_.remove(id, positions_[id]);
    }
  }
  if (patch_links(id)) invalidate_routes();
}

void Network::sync_link_weights() const {
  if (stale_.empty()) return;
  // Unfinished source trees must keep the weights they started under;
  // destination trees of the old version are retired by the bump.
  freeze_growing_trees();
  ++weight_version_;
  for (const NodeId v : stale_) {
    stale_flag_[v] = 0;
    const sim::Vec2 p = positions_[v];
    for (const Topology::Neighbor& nb : links_.neighbors(v)) {
      links_.update_edge_weight(v, nb.id, sim::distance(p, positions_[nb.id]));
    }
  }
  stale_.clear();
}

std::vector<NodeId> Network::nodes_near(sim::Vec2 p, double radius) const {
  // Every live node sits in exactly one layer grid.
  std::vector<NodeId> out;
  for (const SpatialGrid& g : layer_grids_) g.near(p, radius, out);
  std::sort(out.begin(), out.end());
  return out;
}

void Network::drop(DropReason reason) {
  ++frames_dropped_;
  *drop_counters_[static_cast<std::size_t>(reason)] += 1.0;
  trace::Tracer& tr = sim_.tracer();
  if (tr.enabled()) tr.instant(trace_drop_);
}

bool Network::transmit(NodeId src, NodeId dst, Message msg,
                       std::vector<NodeId> route, std::uint32_t next_hop) {
  if (!up_.at(src) || !up_.at(dst)) {
    drop(DropReason::kNodeDown);
    return false;
  }
  if (!link_allowed(src, dst)) {
    drop(DropReason::kLayerBlocked);
    return false;
  }
  const sim::Vec2 sp = positions_[src];
  const RadioProfile& spr = profiles_[src];
  if (!channel_.in_range(sp, spr, positions_[dst], profiles_[dst])) {
    drop(DropReason::kOutOfRange);
    return false;
  }

  // Half-duplex transmitter: frames serialize on the sender's radio.
  const sim::Duration tx = ChannelModel::transmission_delay(spr, msg.size_bytes);
  const sim::SimTime start = std::max(sim_.now(), tx_free_at_[src]);
  tx_free_at_[src] = start + tx;
  const sim::SimTime arrive = tx_free_at_[src] + hop_latency_;

  bytes_sent_[src] += msg.size_bytes;
  *bytes_sent_counter_ += static_cast<double>(msg.size_bytes);
  *frames_sent_counter_ += 1.0;
  if (transmit_hook_) transmit_hook_(src, msg.size_bytes);

  // Loss is decided now (deterministically from the RNG stream) but takes
  // effect at arrival time.
  const double loss = channel_.loss_probability(sp, spr, positions_[dst],
                                                profiles_[dst], sim_.now());
  const bool lost = rng_.bernoulli(loss);

  // Async trace span per frame on the air: begin at transmit, end at
  // delivery or loss. frames_in_flight_ is maintained unconditionally (two
  // integer ops) so the counter track is correct however late tracing was
  // enabled; records themselves cost nothing while tracing is off.
  ++frames_in_flight_;
  std::uint64_t frame_trace = 0;
  {
    trace::Tracer& tr = sim_.tracer();
    if (tr.enabled()) {
      frame_trace = next_frame_trace_id_++;
      tr.async_begin(trace_frame_, frame_trace);
      tr.counter(trace_in_flight_, static_cast<double>(frames_in_flight_));
    }
  }

  // Park the frame in the slab and schedule a {this, slot} closure.
  std::uint32_t slot;
  if (free_pending_ != kNoPending) {
    slot = free_pending_;
    free_pending_ = pending_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  PendingFrame& f = pending_[slot];
  f.msg = std::move(msg);
  f.route = std::move(route);
  f.next_hop = next_hop;
  f.frame_trace = frame_trace;
  f.dst = dst;
  f.lost = lost;
  f.deliver_at = arrive;
  f.event = sim_.schedule_at(arrive, [this, slot] { deliver_pending(slot); }, deliver_tag_);
  return true;
}

void Network::deliver_pending(std::uint32_t slot) {
  --frames_in_flight_;
  trace::Tracer& tr = sim_.tracer();
  if (pending_[slot].frame_trace != 0 && tr.enabled()) {
    tr.async_end(trace_frame_, pending_[slot].frame_trace);
    tr.counter(trace_in_flight_, static_cast<double>(frames_in_flight_));
  }
  // Move the frame out and recycle the slot BEFORE acting on it: receiver
  // handlers and multi-hop forwarding can both re-enter transmit(), which
  // may grow pending_ and invalidate references into it.
  Message msg = std::move(pending_[slot].msg);
  std::vector<NodeId> route = std::move(pending_[slot].route);
  const std::uint32_t next_hop = pending_[slot].next_hop;
  const NodeId dst = pending_[slot].dst;
  const bool lost = pending_[slot].lost;
  pending_[slot].event = sim::kNoEvent;
  pending_[slot].next_free = free_pending_;
  free_pending_ = slot;

  if (lost) {
    drop(DropReason::kChannelLoss);
    return;
  }
  if (!up_.at(dst)) {
    drop(DropReason::kNodeDown);
    return;
  }
  ++msg.hops;
  if (next_hop < route.size()) {
    // Intermediate hop: forward along the route fixed at send time.
    const NodeId next = route[next_hop];
    transmit(dst, next, std::move(msg), std::move(route), next_hop + 1);
    return;
  }
  *frames_delivered_counter_ += 1.0;
  delivery_latency_summary_->add((sim_.now() - msg.sent_at).to_seconds());
  if (handlers_[dst]) handlers_[dst](msg);
}

bool Network::send(NodeId src, NodeId dst, Message msg) {
  msg.src = src;
  msg.dst = dst;
  msg.sent_at = sim_.now();
  return transmit(src, dst, std::move(msg));
}

std::size_t Network::broadcast(NodeId src, Message msg) {
  msg.src = src;
  msg.dst = kBroadcast;
  msg.sent_at = sim_.now();
  if (!up_.at(src)) {
    drop(DropReason::kNodeDown);
    return 0;
  }
  // The receivers are src's edge-store row: exactly its live, link-allowed,
  // in-range peers, ascending by id, which fixes the order the per-receiver
  // loss draws consume the RNG stream. The transmit hook runs inside the
  // loop and may change the network, so each step re-reads the row and
  // resumes at the first id past the last receiver.
  std::size_t put_on_air = 0;
  for (NodeId next = 0;;) {
    const std::vector<Topology::Neighbor>& row = links_.neighbors(src);
    const auto it = std::lower_bound(
        row.begin(), row.end(), next,
        [](const Topology::Neighbor& nb, NodeId id) { return nb.id < id; });
    if (it == row.end()) break;
    next = it->id + 1;
    if (transmit(src, it->id, msg)) ++put_on_air;
  }
  return put_on_air;
}

void Network::invalidate_routes() {
  ++topology_epoch_;
  for (const NodeId s : epoch_trees_) {
    RouteTree& e = *route_cache_[s];
    e.frozen.reset();
    std::vector<std::pair<double, NodeId>>().swap(e.frontier);
  }
  epoch_trees_.clear();
  unfrozen_from_ = 0;
}

void Network::freeze_growing_trees() const {
  std::shared_ptr<FrozenWeights> copy;
  for (; unfrozen_from_ < epoch_trees_.size(); ++unfrozen_from_) {
    RouteTree& e = *route_cache_[epoch_trees_[unfrozen_from_]];
    if (e.frontier.empty()) continue;  // complete: reads no weight again
    if (!copy) {
      copy = std::make_shared<FrozenWeights>();
      copy->row.reserve(node_count() + 1);
      copy->weight.reserve(2 * links_.edge_count());
      for (NodeId v = 0; v < node_count(); ++v) {
        copy->row.push_back(copy->weight.size());
        for (const Topology::Neighbor& nb : links_.neighbors(v)) {
          copy->weight.push_back(nb.weight);
        }
      }
      copy->row.push_back(copy->weight.size());
    }
    e.frozen = copy;
  }
}

std::vector<bool> Network::free_slots() const {
  std::vector<bool> free_slot(pending_.size(), false);
  for (std::uint32_t s = free_pending_; s != kNoPending; s = pending_[s].next_free) {
    free_slot[s] = true;
  }
  return free_slot;
}

Network::MemoryFootprint Network::memory_footprint() const {
  MemoryFootprint m;
  m.node_slabs = positions_.capacity() * sizeof(sim::Vec2) +
                 profiles_.capacity() * sizeof(RadioProfile) +
                 handlers_.capacity() * sizeof(Handler) +
                 up_.capacity() * sizeof(std::uint8_t) +
                 layers_.capacity() * sizeof(LayerId) +
                 gateway_.capacity() * sizeof(std::uint8_t) +
                 bytes_sent_.capacity() * sizeof(std::uint64_t) +
                 tx_free_at_.capacity() * sizeof(sim::SimTime);
  m.grid = gateway_grid_.memory_bytes() + layer_grids_.capacity() * sizeof(SpatialGrid);
  for (const SpatialGrid& g : layer_grids_) m.grid += g.memory_bytes();
  m.links = links_.memory_bytes() + stale_.capacity() * sizeof(NodeId) +
            stale_flag_.capacity() * sizeof(std::uint8_t) +
            linked_.capacity() * sizeof(std::uint8_t);
  m.route_cache = route_cache_.capacity() * sizeof(route_cache_[0]) +
                  dest_trees_.capacity() * sizeof(RouteTree) +
                  epoch_trees_.capacity() * sizeof(NodeId);
  auto tree_bytes = [](const RouteTree& e) {
    return e.paths.dist.capacity() * sizeof(double) +
           e.paths.parent.capacity() * sizeof(std::optional<NodeId>) +
           e.settled.capacity() * sizeof(std::uint8_t) +
           e.frontier.capacity() * sizeof(e.frontier[0]);
  };
  for (const auto& tree : route_cache_) {
    if (tree) m.route_cache += sizeof(RouteTree) + tree_bytes(*tree);
  }
  for (const RouteTree& t : dest_trees_) m.route_cache += tree_bytes(t);
  // Frozen copies are shared among the trees one sync froze; count each
  // once. Only source trees of this epoch can hold one.
  std::vector<const FrozenWeights*> seen;
  for (const NodeId s : epoch_trees_) {
    const FrozenWeights* f = route_cache_[s]->frozen.get();
    if (!f || std::find(seen.begin(), seen.end(), f) != seen.end()) continue;
    seen.push_back(f);
    m.route_cache += sizeof(FrozenWeights) + f->row.capacity() * sizeof(std::size_t) +
                     f->weight.capacity() * sizeof(double);
  }
  m.pending = pending_.capacity() * sizeof(PendingFrame);
  for (const PendingFrame& f : pending_) {
    m.pending += f.route.capacity() * sizeof(NodeId);
  }
  return m;
}

void Network::save(sim::WireWriter& w) const {
  // Handlers are live-stack closures and stay out of the snapshot; the
  // grid, edge store, and route cache are derived state rebuilt on
  // restore.
  w.u64(node_count());
  for (sim::Vec2 p : positions_) w.vec2(p);
  for (const RadioProfile& p : profiles_) {
    w.f64(p.range_m).f64(p.data_rate_bps).f64(p.base_loss);
  }
  for (std::uint8_t v : up_) w.u64(v);
  for (LayerId l : layers_) w.u64(l);
  for (std::uint8_t v : gateway_) w.u64(v);
  for (std::uint64_t b : bytes_sent_) w.u64(b);
  for (sim::SimTime t : tx_free_at_) w.time(t);

  w.f64(channel_.edge_exponent()).f64(channel_.max_edge_loss());
  w.u64(channel_.jammers().size());
  for (const Jammer& j : channel_.jammers()) {
    w.vec2(j.center).f64(j.radius_m).time(j.start).time(j.end).f64(j.induced_loss);
  }
  w.u64(channel_.buildings().size());
  for (const Building& b : channel_.buildings()) w.rect(b.footprint);

  w.rng(rng_);
  metrics_.save(w);
  w.u64(frames_dropped_).dur(hop_latency_).u64(next_frame_trace_id_).u64(topology_epoch_);

  const std::vector<bool> free_slot = free_slots();
  w.u64(static_cast<std::uint64_t>(std::count(free_slot.begin(), free_slot.end(), false)));
  for (std::uint32_t s = 0; s < pending_.size(); ++s) {
    if (free_slot[s]) continue;
    const PendingFrame& f = pending_[s];
    // Structured payloads (std::any) have no wire form; gossip traffic and
    // every other wire-shaped message travel payload-free. Only the mission
    // services attach payloads, and no stack that checkpoints runs them.
    if (f.msg.payload.has_value()) {
      throw std::logic_error(
          "Network::save: an in-flight '" + f.msg.kind +
          "' frame carries a std::any payload, which has no wire form");
    }
    w.u64(f.msg.src).u64(f.msg.dst).bytes(f.msg.kind).u64(f.msg.size_bytes)
        .i64(f.msg.hops).time(f.msg.sent_at);
    w.u64(f.route.size() - f.next_hop);
    for (std::size_t h = f.next_hop; h < f.route.size(); ++h) w.u64(f.route[h]);
    w.u64(f.dst).boolean(f.lost).time(f.deliver_at).u64(sim_.pending_seq(f.event));
  }
}

namespace {

/// Reads a u64 that must be below `limit` (flags, layer ids, node ids).
template <typename T>
bool read_below(sim::WireReader& r, std::uint64_t limit, T& out) {
  const std::uint64_t v = r.u64();
  out = static_cast<T>(v);
  return r.ok() && v < limit;
}

constexpr std::uint64_t kLayerLimit = std::uint64_t{std::numeric_limits<LayerId>::max()} + 1;

}  // namespace

bool Network::restore(sim::WireReader& r, sim::RestoreArmer& armer) {
  // Cancel every live delivery and drop the slab; it is rebuilt below.
  const std::vector<bool> free_slot = free_slots();
  for (std::uint32_t s = 0; s < pending_.size(); ++s) {
    if (!free_slot[s]) sim_.cancel(pending_[s].event);
  }
  pending_.clear();
  free_pending_ = kNoPending;
  frames_in_flight_ = 0;

  // Node slabs: adopt the saved state but keep whatever handlers the
  // restoring stack already installed per node (construction-time firmware
  // on a fresh branch stack, everything on an in-place rewind). Nodes past
  // the saved count (post-snapshot Sybils on a rewind) disappear; nodes
  // past the restoring stack's count (pre-snapshot Sybils restored into a
  // fresh stack) arrive with null handlers until their owning service's
  // participant re-installs them.
  const std::uint64_t nodes = r.u64();
  if (!r.ok() || nodes > r.remaining()) return false;
  const auto n = static_cast<std::size_t>(nodes);
  handlers_.resize(n);
  // A non-finite position or range fits no grid cell and no in_range
  // test: the image is rejected.
  positions_.resize(n);
  for (sim::Vec2& p : positions_) {
    p = r.vec2();
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  profiles_.resize(n);
  for (RadioProfile& p : profiles_) {
    p.range_m = r.f64();
    p.data_rate_bps = r.f64();
    p.base_loss = r.f64();
    if (!std::isfinite(p.range_m)) return false;
  }
  up_.resize(n);
  for (std::uint8_t& v : up_) {
    if (!read_below(r, 2, v)) return false;
  }
  layers_.resize(n);
  for (LayerId& l : layers_) {
    if (!read_below(r, kLayerLimit, l)) return false;
  }
  gateway_.resize(n);
  for (std::uint8_t& v : gateway_) {
    if (!read_below(r, 2, v)) return false;
  }
  bytes_sent_.resize(n);
  for (std::uint64_t& b : bytes_sent_) b = r.u64();
  tx_free_at_.resize(n);
  for (sim::SimTime& t : tx_free_at_) t = r.time();

  const double edge_exponent = r.f64();
  const double max_edge_loss = r.f64();
  ChannelModel channel(edge_exponent, max_edge_loss);
  const std::uint64_t jammers = r.u64();
  if (!r.ok() || jammers > r.remaining()) return false;
  for (std::uint64_t i = 0; i < jammers; ++i) {
    Jammer j;
    j.center = r.vec2();
    j.radius_m = r.f64();
    j.start = r.time();
    j.end = r.time();
    j.induced_loss = r.f64();
    channel.add_jammer(j);
  }
  const std::uint64_t buildings = r.u64();
  if (!r.ok() || buildings > r.remaining()) return false;
  for (std::uint64_t i = 0; i < buildings; ++i) channel.add_building(r.rect());
  channel_ = std::move(channel);

  rng_ = r.rng();
  // The registry is replaced wholesale: re-bind the hot-path handles even
  // when its image is rejected, so none is left dangling.
  const bool metrics_ok = metrics_.restore(r);
  resolve_metric_handles();
  if (!metrics_ok) return false;
  frames_dropped_ = r.u64();
  hop_latency_ = r.dur();
  next_frame_trace_id_ = r.u64();
  topology_epoch_ = r.u64();

  // Re-park every in-flight frame and queue its delivery re-arm under the
  // frame's original FIFO seq. reserve() first: &p.event must stay valid
  // until the registry schedules the re-arms.
  const std::uint64_t frames = r.u64();
  if (!r.ok() || frames > r.remaining()) return false;
  pending_.reserve(static_cast<std::size_t>(frames));
  for (std::uint64_t i = 0; i < frames; ++i) {
    const auto slot = static_cast<std::uint32_t>(pending_.size());
    PendingFrame& p = pending_.emplace_back();
    p.msg.src = static_cast<NodeId>(r.u64());
    p.msg.dst = static_cast<NodeId>(r.u64());
    p.msg.kind = r.bytes();
    p.msg.size_bytes = static_cast<std::size_t>(r.u64());
    p.msg.hops = static_cast<int>(r.i64());
    p.msg.sent_at = r.time();
    const std::uint64_t tail = r.u64();
    if (!r.ok() || tail > r.remaining()) return false;
    p.route.resize(static_cast<std::size_t>(tail));
    for (NodeId& hop : p.route) {
      if (!read_below(r, n, hop)) return false;
    }
    if (!read_below(r, n, p.dst)) return false;
    p.lost = r.boolean();
    p.deliver_at = r.time();
    armer.rearm(p.deliver_at, r.u64(), [this, slot] { deliver_pending(slot); },
                deliver_tag_, &p.event);
  }
  if (!r.ok()) return false;
  frames_in_flight_ = pending_.size();

  route_cache_.clear();
  route_cache_.resize(node_count());
  dest_trees_.clear();
  dest_live_ = 0;
  epoch_trees_.clear();
  unfrozen_from_ = 0;
  // The grids and the edge store are derived state: rebuild them from the
  // restored slabs, cell sizes included, then patch every node into an
  // empty store in id order. Layer tags and gateway flags are in place.
  rebuild_grids();
  links_ = Topology(node_count());
  stale_.clear();
  stale_flag_.assign(node_count(), 0);
  linked_.assign(node_count(), 0);
  for (NodeId id = 0; id < node_count(); ++id) patch_links(id);
  // Every link was just weighed at the restored positions: none is stale.
  for (const NodeId v : stale_) stale_flag_[v] = 0;
  stale_.clear();
  return true;
}

std::uint64_t Network::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : bytes_sent_) total += b;
  return total;
}

}  // namespace iobt::net
