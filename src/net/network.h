#pragma once
// Packet-level simulated wireless network.
//
// A Network owns the set of radio endpoints, delivers unicast and one-hop
// broadcast frames with transmission delay + propagation latency + loss,
// and forwards multi-hop traffic along shortest paths over the *current*
// connectivity graph (maintained incrementally as positions and liveness
// change). Per-node accounting (bytes, drops, energy callbacks) feeds the
// experiment harnesses.
//
// Node state lives in structure-of-arrays slabs (one flat vector per
// field) rather than an array of endpoint structs: the hot loops — grid
// rebuilds, connectivity scans, liveness sweeps — touch one or two fields
// of every node, and slab layout keeps those sweeps on densely packed
// cache lines at 100k+ nodes instead of striding over 80-byte records.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/layer.h"
#include "net/message.h"
#include "net/spatial_grid.h"
#include "net/topology.h"
#include "sim/checkpoint.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace iobt::net {

/// Delivery callback installed per node: invoked (at the receive time) for
/// every message addressed to, or broadcast within range of, the node.
using Handler = std::function<void(const Message&)>;

/// Why a send() failed to deliver.
enum class DropReason {
  kOutOfRange,
  kChannelLoss,
  kNodeDown,
  kNoRoute,
  kQueueOverflow,
  kLayerBlocked,  ///< endpoints in different layers and not both gateways
};
inline constexpr std::size_t kDropReasonCount = 6;

std::string to_string(DropReason r);

class Network : public sim::Checkpointable {
 public:
  Network(sim::Simulator& simulator, ChannelModel channel, sim::Rng rng);
  ~Network() override;

  // --- Node lifecycle ---------------------------------------------------

  /// Registers a radio endpoint; returns its dense NodeId. The layer tag
  /// defaults to kLayerGround, so a caller that never mentions layers gets
  /// a flat network: every pair is same-layer and the layer predicate
  /// never blocks a link.
  /// The position and range must be finite (asserted).
  NodeId add_node(sim::Vec2 position, RadioProfile profile = {},
                  LayerId layer = kLayerGround);
  std::size_t node_count() const { return positions_.size(); }

  void set_handler(NodeId id, Handler h);

  /// One node's new position. Positions must be finite (asserted).
  struct Move {
    NodeId id;
    sim::Vec2 to;
  };
  /// Writes every move's position and grid entry first, then patches each
  /// live mover's links once against the final positions, so the edge set
  /// equals that of the same moves made one at a time. The epoch bumps at
  /// most once, iff the edge set changed. A node's last move counts, a
  /// down node repositions silently, and an unknown id throws
  /// std::out_of_range before anything moves. No topology reader may run
  /// inside a batch: World::tick collects its moves and flushes before
  /// anything that can read the topology.
  void move_batch(std::span<const Move> moves);
  /// A batch of one.
  void set_position(NodeId id, sim::Vec2 p) {
    const Move m{id, p};
    move_batch({&m, 1});
  }
  sim::Vec2 position(NodeId id) const { return positions_.at(id); }
  const RadioProfile& profile(NodeId id) const { return profiles_.at(id); }

  // --- Layers -------------------------------------------------------------
  // Links form only within a layer, except between two gateway nodes,
  // which bridge any pair of layers (explicit inter-layer edges). The
  // predicate is applied uniformly by transmit, the edge store (which
  // broadcast reads), and the restore-time reseed.

  LayerId layer(NodeId id) const { return layers_.at(id); }
  bool is_gateway(NodeId id) const { return gateway_.at(id) != 0; }
  /// Promotes/demotes a node as an inter-layer gateway. Affected links are
  /// exactly the cross-layer links to other live in-range gateways; the
  /// topology epoch is bumped only if at least one such link appeared or
  /// vanished (a flip with no cross-layer peer in range changes nothing,
  /// so flat-network digests are unaffected).
  void set_gateway(NodeId id, bool on);

  /// Takes a node offline: it neither sends, receives, nor forwards.
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const { return up_.at(id) != 0; }

  // --- Traffic ----------------------------------------------------------

  /// One-hop unicast. Delivery (or drop) is decided per-frame from the
  /// channel model. Returns false if the frame was dropped at send time
  /// (down node / out of range); channel loss is decided at delivery time.
  bool send(NodeId src, NodeId dst, Message msg);

  /// One-hop broadcast to every live node in radio range of src (src's
  /// edge-store row), in ascending id order. Returns number of frames put
  /// on the air.
  std::size_t broadcast(NodeId src, Message msg);

  /// Multi-hop unicast along a shortest path, where a path's length is
  /// the sum of its link distances (Dijkstra, not hop count). Every answer
  /// is the path of src's Dijkstra for the current topology epoch: the run
  /// over the link weights as they stood at src's first lookup in the
  /// epoch, with (dist, id) pop order, so ties resolve as
  /// Topology::shortest_paths resolves them. Weight drift within the epoch
  /// does not reach it (see topology_epoch()). While the weights are still
  /// those of src's first lookup, the path is read from one reverse
  /// Dijkstra rooted at dst, shared by every source that routes to dst;
  /// it is used only when every other neighbour of every hop is worse by
  /// a margin above rounding, which makes the shortest path unique and so
  /// src's own. Otherwise src grows its own tree, on a frozen copy of
  /// those weights if they have been rewritten since; so does a source
  /// that already started one destination tree and finds none for dst.
  /// route_stats() counts which of the two answered.
  /// The route is fixed at send time; each hop is a real frame subject to
  /// loss; on a lost hop the message dies (upper layers retry if they
  /// care). Returns false if no route — including unknown node ids
  /// (dropped kNoRoute) and a down src == dst (dropped kNodeDown: a dead
  /// radio delivers nothing, not even to itself).
  bool route_and_send(NodeId src, NodeId dst, Message msg);

  /// Route lookups since construction, by how they were answered. Process
  /// counters: not checkpointed, not in metrics() (the registry digest
  /// does not see them), and a restore does not reset them.
  struct RouteStats {
    std::uint64_t lookups = 0;             ///< route_and_send calls that consulted a tree
    std::uint64_t dest_answers = 0;        ///< answered from a destination tree
    std::uint64_t margin_fallbacks = 0;    ///< destination path not provably src's
    std::uint64_t dest_tree_builds = 0;    ///< destination trees started
    std::uint64_t source_tree_builds = 0;  ///< source trees started
    std::uint64_t nodes_settled = 0;       ///< Dijkstra pops that settled a node, both kinds
  };
  const RouteStats& route_stats() const { return route_stats_; }

  // --- Introspection ----------------------------------------------------

  // connectivity() and topology_view() sync the edge store's link weights
  // first (see topology_epoch()), so these const readers write Network's
  // internal state: they are not safe to call concurrently with each other
  // or with anything else on the same Network.

  /// Copy of the current connectivity graph among live nodes (edge weight
  /// = distance): the persistent edge store, which add_node / move_batch
  /// / set_node_up / set_gateway patch from grid neighborhood deltas, so
  /// this is O(edges) with no node scan. Adjacency lists are ascending by
  /// neighbor id. Syncs the weights of nodes that moved since the last read
  /// first.
  Topology connectivity() const {
    sync_link_weights();
    return links_;
  }

  /// Borrowed view of the same graph — O(1), no copy, after the same
  /// weight sync — valid until the next Network mutation.
  const Topology& topology_view() const {
    sync_link_weights();
    return links_;
  }

  /// Monotone counter bumped whenever the connectivity graph may have
  /// changed (node added, liveness flipped, or a move batch that changed
  /// at least one in-range relationship). Route caches — ours and callers' —
  /// key on it. A move that changes no in-range relationship does NOT bump
  /// the epoch: cached routes stay structurally valid (their hop sequences
  /// still exist) even though link distances drift slightly. A move only
  /// marks the mover's links stale; the first reader (a route lookup,
  /// connectivity() or topology_view()) syncs every stale link to the
  /// current distance and bumps a private weight version. Our route
  /// answers use frozen weights: each source's are those of the Dijkstra
  /// run over the weights at its first lookup in the epoch. Destination
  /// trees read the live weights and are keyed by (epoch, weight version),
  /// so a sync retires them; the sync that first rewrites weights after a
  /// source's first lookup gives that source, and every other unfinished
  /// source tree, a flat copy of the weights it started under (dropped
  /// when the tree completes or the epoch bumps).
  std::uint64_t topology_epoch() const { return topology_epoch_; }

  /// Live-node candidates within `radius` of `p`, ascending NodeId order.
  /// This is a SUPERSET gathered from every layer grid's cells intersecting
  /// the disc (every live node of a grid for a radius wider than that
  /// grid's occupied cells, including an infinite one): callers apply
  /// their own exact distance filter, in id order, so their selection and
  /// any RNG draws downstream of it do not depend on how wide the superset
  /// was.
  std::vector<NodeId> nodes_near(sim::Vec2 p, double radius) const;

  /// The channel is fixed at construction except for jammers, which raise
  /// loss but never change which pairs are in range: the edge store stays
  /// the in_range relation without a rebuild.
  void add_jammer(Jammer j) { channel_.add_jammer(j); }
  const ChannelModel& channel() const { return channel_; }
  sim::Simulator& simulator() { return sim_; }

  /// Called once per transmitted frame with (node, bytes): energy hooks.
  void set_transmit_hook(std::function<void(NodeId, std::size_t)> hook) {
    transmit_hook_ = std::move(hook);
  }

  sim::MetricsRegistry& metrics() { return metrics_; }
  const sim::MetricsRegistry& metrics() const { return metrics_; }

  std::uint64_t bytes_sent(NodeId id) const { return bytes_sent_.at(id); }
  std::uint64_t total_bytes_sent() const;
  std::uint64_t frames_dropped() const { return frames_dropped_; }

  /// Bytes held per substrate structure (container capacities x element
  /// sizes — a deterministic structural measure, not allocator truth).
  /// Feeds the memory-per-node column of the scaling bench: the budget
  /// that decides whether one world fits 100k+ nodes.
  struct MemoryFootprint {
    std::size_t node_slabs = 0;   ///< SoA per-node field vectors
    std::size_t grid = 0;         ///< spatial index cells, every grid
    std::size_t links = 0;        ///< edge store, stale-weight list, link flags
    std::size_t route_cache = 0;  ///< source and destination trees, frozen weights
    std::size_t pending = 0;      ///< in-flight frame slab
    std::size_t total() const {
      return node_slabs + grid + links + route_cache + pending;
    }
  };
  MemoryFootprint memory_footprint() const;

  // --- Checkpointing ----------------------------------------------------
  // Saved: node slabs (positions, profiles, liveness, accounting — NOT the
  // receive handlers, which are closures of the live service stack),
  // channel, rng, metrics, and every in-flight frame with its delivery
  // time + original FIFO seq. Restored: all of the above, with the grid,
  // the incremental edge store, and the route cache rebuilt from scratch
  // (pure derived state) and deliveries re-armed in original-seq order.
  // Handlers already installed on the restoring stack are kept per-node;
  // services that installed handlers on nodes created mid-run (e.g. Sybil
  // firmware) must re-install them from their own participant restore.

  std::string_view checkpoint_key() const override { return "net.network"; }
  /// Throws std::logic_error when an in-flight frame carries a std::any
  /// payload: structured payloads have no wire form.
  void save(sim::WireWriter& w) const override;
  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override;

 private:
  /// A frame on the air, parked in the pending slab until its delivery
  /// event fires. Slab slots are recycled through a free list so the hot
  /// path reuses their buffers; the delivery closure captures only
  /// {this, slot} — small enough for std::function's inline storage, so
  /// scheduling a frame performs no heap allocation.
  struct PendingFrame {
    Message msg;
    /// Multi-hop route, fixed at send time and carried from hop to hop;
    /// route[next_hop..] are the hops after dst (none left: dst is final).
    std::vector<NodeId> route;
    std::uint64_t frame_trace = 0;
    NodeId dst = 0;
    bool lost = false;
    std::uint32_t next_free = 0;
    std::uint32_t next_hop = 0;
    /// Delivery time + event id, kept so checkpoints can capture the
    /// frame's original seq and restores can cancel/re-arm it.
    sim::SimTime deliver_at;
    sim::EventId event = sim::kNoEvent;
  };
  static constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;

  /// Marks the slab slots currently on the free list; live in-flight
  /// frames are the rest.
  std::vector<bool> free_slots() const;
  /// (Re)binds the hot-path metric pointers into metrics_ — called from
  /// the constructor and after restore replaces the registry wholesale
  /// (copy-assigning a std::map gives no node-stability guarantee).
  void resolve_metric_handles();

  /// Puts one frame on the air src->dst; handles loss + delivery event.
  /// `route` travels with the frame; route[next_hop..] are the hops after
  /// dst. Returns true if the frame was scheduled (not necessarily
  /// delivered).
  bool transmit(NodeId src, NodeId dst, Message msg,
                std::vector<NodeId> route = {}, std::uint32_t next_hop = 0);
  /// Delivery event body: resolves loss, forwards multi-hop tails, invokes
  /// the receiver handler, and recycles the slab slot.
  void deliver_pending(std::uint32_t slot);

  void drop(DropReason reason);
  /// Bumps the topology epoch: every route tree is stale, and the
  /// frontiers and frozen weight copies of the old epoch's trees are
  /// released.
  void invalidate_routes();
  /// The layer predicate: true iff a link between a and b is permitted.
  /// Same layer always; cross-layer only between two gateways.
  bool link_allowed(NodeId a, NodeId b) const {
    return layers_[a] == layers_[b] || (gateway_[a] && gateway_[b]);
  }

  /// Indexes live node `id`, with its position and range, in its layer
  /// grid, or in the gateway grid when `gateway_grid` is set (id must
  /// already be up and flagged). A radio longer than the grid's cells
  /// widens them (SpatialGrid::insert), restoring the covering invariant.
  void grid_insert(NodeId id, bool gateway_grid);
  /// Refills every grid from the slabs, each widened to the longest radio
  /// among its live members: restore's counterpart of grid_insert.
  void rebuild_grids();
  /// Calls visit(first, last) on spans of packed grid entries that hold,
  /// each once, every live node that may link with `id` at `p`: the 3x3
  /// block of its layer grid, plus, for a gateway, the gateway grid's block
  /// minus its own layer, one entry per call. Every candidate passes
  /// link_allowed by construction. Defined in links.cpp, its only user.
  template <typename Visit>
  void visit_link_candidates(NodeId id, sim::Vec2 p, Visit&& visit) const;

  /// Bulk connectivity build from grid neighborhoods (each node's
  /// visit_link_candidates, sorted): reseeds the edge store on restore,
  /// where patching from a delta is impossible.
  Topology full_connectivity() const;
  /// Patches links_ for live node `id`, moved by the current batch, once
  /// every position and grid entry of the batch is final. Each candidate
  /// of visit_link_candidates at id's position costs one range test:
  /// whether a link existed is read from linked_, set from id's row before
  /// the walk and cleared after. A row member the walk did not meet left
  /// the block and is removed. add_edge_sorted and remove_edge keep every
  /// row id-sorted and a new edge gets the final distance, so the store
  /// depends on neither flip nor patch order. A retained edge marks `id`
  /// stale for sync_link_weights. Returns whether any edge flipped.
  bool patch_links_for_move(NodeId id);
  /// Sets every link of every stale node to the distance between its
  /// endpoints' current positions, after freezing growing route trees: the
  /// only code that rewrites weights, run by every reader of them. Each
  /// weight is a pure function of positions (hypot is symmetric in sign),
  /// so the store equals a from-scratch rebuild after the sync.
  void sync_link_weights() const;
  /// Adds every edge of a node that just came up / joined (grid must
  /// already contain it).
  void attach_links(NodeId id);
  /// Removes every edge of a node that just went down.
  void detach_links(NodeId id);

  sim::Simulator& sim_;
  ChannelModel channel_;
  sim::Rng rng_;
  sim::TagId deliver_tag_;  // interned once: tags every in-flight frame event
  /// Trace labels: async span per in-flight frame, drop instants, and the
  /// frames-in-flight counter track, interned at construction. Recorded
  /// only while the simulator's tracer is enabled.
  trace::NameId trace_frame_;
  trace::NameId trace_drop_;
  trace::NameId trace_in_flight_;
  std::uint64_t next_frame_trace_id_ = 1;
  std::uint64_t frames_in_flight_ = 0;

  // Node state as structure-of-arrays slabs, parallel by NodeId. The hot
  // sweeps (grid rebuild: positions x up; connectivity: positions x
  // profiles x up; accounting: bytes) each touch only the slabs they need.
  std::vector<sim::Vec2> positions_;
  std::vector<RadioProfile> profiles_;
  std::vector<Handler> handlers_;
  std::vector<std::uint8_t> up_;  // 0/1; vector<bool> would cost a shift per access
  std::vector<LayerId> layers_;
  std::vector<std::uint8_t> gateway_;  // 0/1 inter-layer bridge flag
  std::vector<std::uint64_t> bytes_sent_;
  /// Earliest time each radio's transmitter is free (half-duplex FIFO).
  std::vector<sim::SimTime> tx_free_at_;

  /// Fixed per-hop propagation + processing latency; snapshots carry it.
  sim::Duration hop_latency_ = sim::Duration::millis(1);
  std::function<void(NodeId, std::size_t)> transmit_hook_;
  sim::MetricsRegistry metrics_;
  std::uint64_t frames_dropped_ = 0;
  /// In-flight frame slab + free-list head (see PendingFrame).
  std::vector<PendingFrame> pending_;
  std::uint32_t free_pending_ = kNoPending;
  /// Pre-resolved handles for per-frame metrics (see constructor): the
  /// registry's std::map nodes are pointer-stable, so these stay valid for
  /// the network's lifetime.
  double* bytes_sent_counter_ = nullptr;
  double* frames_sent_counter_ = nullptr;
  double* frames_delivered_counter_ = nullptr;
  sim::Summary* delivery_latency_summary_ = nullptr;
  double* drop_counters_[kDropReasonCount] = {};

  // Spatial indexes over LIVE nodes (down nodes are removed and re-inserted
  // on recovery): one grid per layer, indexed by LayerId and grown on
  // demand, plus one grid holding every live gateway. Links form within a
  // layer or between gateways, so a node's links lie in its layer grid's
  // 3x3 block plus, for a gateway, the gateway grid's block. Each grid's
  // cells cover the longest radio it has indexed (grids start at 1 m
  // cells), so a 190 m ground radio is not scanned at a 520 m command
  // radio's cell size.
  std::vector<SpatialGrid> layer_grids_;
  SpatialGrid gateway_grid_{0.0};
  /// Id scratch buffer for attaches, detaches, gateway flips, the restore
  /// reseed and a move batch's movers (avoids an allocation per call);
  /// mutable because the const reseed reuses it. Broadcast must not use
  /// it: its transmit hook can run any of those.
  mutable std::vector<NodeId> scratch_;
  /// Per-node 0/1 "linked to the mover" flags for patch_links_for_move;
  /// all zero between calls.
  std::vector<std::uint8_t> linked_;
  /// Edge scratch for the restore-time bulk build — reused so repeated
  /// restores stop allocating once warm; mutable for the same reason as
  /// scratch_.
  mutable std::vector<Edge> edge_scratch_;
  /// One move's flipped links (patch_links_for_move): `now` tells whether
  /// the link appears or vanishes. Only the move's first n_flips entries
  /// are meaningful; the buffer keeps the size of the longest walk.
  struct LinkPatch {
    NodeId other;
    bool now;
  };
  std::vector<LinkPatch> patch_scratch_;

  /// Persistent connectivity edge store, patched in place by add_node /
  /// move_batch / set_node_up / set_gateway. Adjacency lists are kept
  /// sorted ascending by neighbor id — the order a from-scratch build in
  /// (a, b > a) pair order produces — so Dijkstra tie-breaks and digests
  /// do not depend on the order edges were patched in. Derived state:
  /// never saved, reseeded by full_connectivity on restore. Mutable, like
  /// the stale bookkeeping below, because the const readers sync weights.
  mutable Topology links_;
  /// Nodes that moved keeping links since the last sync: their links still
  /// carry an older distance. stale_flag_ (per node) keeps stale_ unique.
  mutable std::vector<NodeId> stale_;
  mutable std::vector<std::uint8_t> stale_flag_;

  // Route trees, invalidated by epoch bumps: one per routing source, and
  // one per destination in use under the current weight version.
  std::uint64_t topology_epoch_ = 0;
  /// Bumped by every sync that rewrites weights; keys destination trees.
  mutable std::uint64_t weight_version_ = 0;
  /// Link weights of links_ at one instant, flat in adjacency order:
  /// node v's weights are weight[row[v] .. row[v + 1]).
  struct FrozenWeights {
    std::vector<std::size_t> row;
    std::vector<double> weight;
  };
  /// One Dijkstra rooted at paths.source, run on demand. A lookup pops the
  /// frontier only until the node it needs is settled; the next lookup
  /// resumes it. Pops follow the (dist, id) order and relaxations the
  /// adjacency order, so every settled node's dist and parent equal those
  /// of a full run. Links are symmetric, so a tree rooted at a destination
  /// d holds every node's distance to d, and parent is the next hop.
  ///
  /// A source tree is registered at its source's first lookup in the
  /// epoch, lazily: frontier {src}, arrays not yet sized (settled empty),
  /// `version` the weight version it registered at. Within an epoch the
  /// edge set is fixed but weights drift: a source tree still growing (a
  /// registered one included) when a sync rewrites weights reads `frozen`
  /// from then on, so it stays the run over the weights it started under.
  /// A destination tree reads links_ directly and is valid for (epoch,
  /// version) only.
  struct RouteTree {
    std::uint64_t epoch = ~0ULL;
    std::uint64_t version = 0;
    /// A source tree's: whether its source started a destination tree
    /// since it registered.
    bool started_dest = false;
    ShortestPaths paths;
    std::vector<std::uint8_t> settled;
    /// Min-heap on (tentative dist, id); stale entries are skipped. A
    /// source tree's buffer is released when the epoch bumps.
    std::vector<std::pair<double, NodeId>> frontier;
    /// Shared by every tree frozen by the same sync; null while the tree
    /// reads links_ directly.
    std::shared_ptr<const FrozenWeights> frozen;
  };
  /// Allocated at a source's first lookup: most nodes never route.
  std::vector<std::unique_ptr<RouteTree>> route_cache_;
  /// Destination trees: the first dest_live_ are those of the current
  /// (epoch, weight version), one per destination looked up under it, in
  /// first-lookup order. The rest are retired, kept for their buffers.
  std::vector<RouteTree> dest_trees_;
  std::size_t dest_live_ = 0;
  /// Sources registered in this epoch (cleared on epoch bumps). Those
  /// before `unfrozen_from_` were frozen or complete at the last freeze;
  /// only the rest can still read live weights.
  std::vector<NodeId> epoch_trees_;
  mutable std::size_t unfrozen_from_ = 0;
  RouteStats route_stats_;
  /// Writes src's route to dst into `route` ([src, ..., dst]; empty if
  /// there is none), from dst's tree when the margin allows and from
  /// src's own tree otherwise.
  void find_route(NodeId src, NodeId dst, std::vector<NodeId>& route);
  /// dst's destination tree for the current (epoch, weight version), or
  /// null; start_dest_tree starts one. Either is valid until the next
  /// start.
  RouteTree* live_dest_tree(NodeId dst);
  RouteTree& start_dest_tree(NodeId dst);
  /// Sizes t's arrays for a fresh run rooted at `root`.
  void start_tree(RouteTree& t, NodeId root);
  /// Pops t's frontier until `until` is settled or every reachable node is.
  void grow_tree(RouteTree& t, NodeId until);
  /// True if, at every node v on src's path in destination tree t, every
  /// neighbour u but the next hop has w(v, u) + D(u) > D(v) + delta, with
  /// D the distance to t's root (the frontier minimum bounds an unsettled
  /// u from below) and delta above the rounding error of any path sum.
  /// The shortest src->root path is then unique, so src's own Dijkstra
  /// takes exactly these hops.
  bool margin_holds(const RouteTree& t, NodeId src) const;
  /// Gives every unfinished, unfrozen source tree of this epoch one shared
  /// copy of the current weights; called by sync_link_weights before it
  /// rewrites them.
  void freeze_growing_trees() const;
};

}  // namespace iobt::net
