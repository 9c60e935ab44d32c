// Tests for the network substrate: topology algorithms and generators,
// channel model, packet delivery, multi-hop routing, jamming, partitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "net/channel.h"
#include "net/dispatcher.h"
#include "net/network.h"
#include "net/spatial_grid.h"
#include "net/topology.h"
#include "net_oracle.h"
#include "topology_fixtures.h"
#include "sim/checkpoint.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace iobt::net {
namespace {

using sim::Duration;
using sim::Rect;
using sim::Rng;
using sim::Simulator;
using sim::SimTime;
using sim::Vec2;
using iobt::testing::brute_connectivity;

// ------------------------------------------------------------- Topology ----

TEST(Topology, AddRemoveEdges) {
  Topology t(4);
  t.add_edge(0, 1, 2.0);
  t.add_edge(1, 2);
  EXPECT_EQ(t.edge_count(), 2u);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(1, 0));  // undirected
  EXPECT_DOUBLE_EQ(*t.edge_weight(0, 1), 2.0);
  t.remove_edge(0, 1);
  EXPECT_FALSE(t.has_edge(0, 1));
  EXPECT_EQ(t.edge_count(), 1u);
  t.remove_edge(0, 3);  // absent: no-op
  EXPECT_EQ(t.edge_count(), 1u);
}

TEST(Topology, ParallelEdgeUpdatesWeight) {
  Topology t(2);
  t.add_edge(0, 1, 1.0);
  t.add_edge(0, 1, 5.0);
  EXPECT_EQ(t.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(*t.edge_weight(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(*t.edge_weight(1, 0), 5.0);
}

TEST(Topology, SelfLoopIgnored) {
  Topology t(2);
  t.add_edge(1, 1);
  EXPECT_EQ(t.edge_count(), 0u);
}

TEST(Topology, AddEdgeOutOfRangeThrows) {
  Topology t(2);
  EXPECT_THROW(t.add_edge(0, 5), std::out_of_range);
}

TEST(Topology, ShortestPathsLine) {
  // 0 -1- 1 -1- 2 -1- 3, plus a heavy shortcut 0-3.
  Topology t(4);
  t.add_edge(0, 1, 1.0);
  t.add_edge(1, 2, 1.0);
  t.add_edge(2, 3, 1.0);
  t.add_edge(0, 3, 10.0);
  const auto sp = t.shortest_paths(0);
  EXPECT_DOUBLE_EQ(sp.dist[3], 3.0);
  EXPECT_EQ(sp.path_to(3), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Topology, ShortestPathsUnreachable) {
  Topology t(3);
  t.add_edge(0, 1);
  const auto sp = t.shortest_paths(0);
  EXPECT_FALSE(sp.reachable(2));
  EXPECT_TRUE(sp.path_to(2).empty());
  EXPECT_TRUE(sp.reachable(0));
  EXPECT_EQ(sp.path_to(0), (std::vector<NodeId>{0}));
}

TEST(Topology, HopDistances) {
  Topology t = Topology::ring(6);
  const auto d = t.hop_distances(0);
  EXPECT_EQ(d[3], 3);
  EXPECT_EQ(d[5], 1);
}

TEST(Topology, ComponentsAndConnectivity) {
  Topology t(5);
  t.add_edge(0, 1);
  t.add_edge(2, 3);
  EXPECT_EQ(t.component_count(), 3);  // {0,1} {2,3} {4}
  EXPECT_FALSE(t.connected());
  t.add_edge(1, 2);
  t.add_edge(3, 4);
  EXPECT_TRUE(t.connected());
}

TEST(Topology, GeneratorShapes) {
  EXPECT_EQ(Topology::ring(5).edge_count(), 5u);
  EXPECT_EQ(Topology::star(5).edge_count(), 4u);
  EXPECT_EQ(Topology::star(5).degree(0), 4u);
  const auto g = Topology::grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3u + 2u * 4u);  // vertical + horizontal
  EXPECT_TRUE(g.connected());
}

TEST(Topology, RandomGeometricRespectsRadius) {
  Rng rng(1);
  std::vector<Vec2> pos;
  const auto t = iobt::testing::random_geometric(50, Rect{{0, 0}, {1000, 1000}}, 200.0, rng, &pos);
  ASSERT_EQ(pos.size(), 50u);
  for (const auto& e : t.edges()) {
    EXPECT_LE(sim::distance(pos[e.a], pos[e.b]), 200.0 + 1e-9);
    EXPECT_NEAR(e.weight, sim::distance(pos[e.a], pos[e.b]), 1e-9);
  }
}

TEST(Topology, KNearestMinimumDegree) {
  Rng rng(2);
  std::vector<Vec2> pos(20);
  for (auto& p : pos) p = {rng.uniform(0, 100), rng.uniform(0, 100)};
  const auto t = Topology::k_nearest(pos, 3);
  for (NodeId v = 0; v < 20; ++v) EXPECT_GE(t.degree(v), 3u);
}

// -------------------------------------------------------------- Channel ----

TEST(Channel, InRangeUsesMinOfRanges) {
  ChannelModel ch;
  RadioProfile big{.range_m = 500};
  RadioProfile small{.range_m = 100};
  EXPECT_TRUE(ch.in_range({0, 0}, big, {90, 0}, small));
  EXPECT_FALSE(ch.in_range({0, 0}, big, {150, 0}, small));
}

TEST(Channel, LossGrowsWithDistance) {
  ChannelModel ch;
  RadioProfile r{.range_m = 100, .base_loss = 0.01};
  const double near = ch.loss_probability({0, 0}, r, {10, 0}, r, SimTime::zero());
  const double far = ch.loss_probability({0, 0}, r, {95, 0}, r, SimTime::zero());
  EXPECT_LT(near, far);
  EXPECT_GE(near, 0.01);
  const double out = ch.loss_probability({0, 0}, r, {150, 0}, r, SimTime::zero());
  EXPECT_DOUBLE_EQ(out, 1.0);
}

TEST(Channel, JammerRaisesLossWhileActive) {
  ChannelModel ch;
  ch.add_jammer({.center = {0, 0},
                 .radius_m = 50,
                 .start = SimTime::seconds(10),
                 .end = SimTime::seconds(20),
                 .induced_loss = 0.99});
  RadioProfile r{.range_m = 100, .base_loss = 0.01};
  const double before = ch.loss_probability({0, 0}, r, {10, 0}, r, SimTime::seconds(5));
  const double during = ch.loss_probability({0, 0}, r, {10, 0}, r, SimTime::seconds(15));
  const double after = ch.loss_probability({0, 0}, r, {10, 0}, r, SimTime::seconds(25));
  EXPECT_LT(before, 0.1);
  EXPECT_DOUBLE_EQ(during, 0.99);
  EXPECT_LT(after, 0.1);
}

TEST(Channel, TransmissionDelayScalesWithSize) {
  RadioProfile r{.data_rate_bps = 1e6};
  EXPECT_EQ(ChannelModel::transmission_delay(r, 125000).nanos(),
            Duration::seconds(1.0).nanos());
}

// -------------------------------------------------------------- Network ----

struct NetFixture : ::testing::Test {
  Simulator sim;
  ChannelModel clean_channel{2.0, 0.0};  // no edge loss for determinism
  Network net{sim, clean_channel, Rng(99)};

  NodeId add(Vec2 p, double range = 300.0, double base_loss = 0.0) {
    return net.add_node(p, RadioProfile{.range_m = range,
                                        .data_rate_bps = 1e6,
                                        .base_loss = base_loss});
  }
};

TEST_F(NetFixture, UnicastDelivers) {
  const NodeId a = add({0, 0}), b = add({100, 0});
  int got = 0;
  net.set_handler(b, [&](const Message& m) {
    ++got;
    EXPECT_EQ(m.kind, "ping");
    EXPECT_EQ(m.src, a);
    EXPECT_EQ(m.hops, 1);
  });
  EXPECT_TRUE(net.send(a, b, Message{.kind = "ping", .size_bytes = 100}));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, DeliveryLatencyIncludesTransmissionAndHop) {
  const NodeId a = add({0, 0}), b = add({100, 0});
  SimTime arrival;
  net.set_handler(b, [&](const Message&) { arrival = sim.now(); });
  // 125000 bytes at 1 Mbps = 1 s + 1 ms hop latency.
  net.send(a, b, Message{.kind = "blob", .size_bytes = 125000});
  sim.run();
  EXPECT_EQ(arrival.nanos(), (SimTime::seconds(1.0) + Duration::millis(1)).nanos());
}

TEST_F(NetFixture, HalfDuplexSerializesFrames) {
  const NodeId a = add({0, 0}), b = add({100, 0});
  std::vector<SimTime> arrivals;
  net.set_handler(b, [&](const Message&) { arrivals.push_back(sim.now()); });
  net.send(a, b, Message{.kind = "x", .size_bytes = 125000});  // 1 s on air
  net.send(a, b, Message{.kind = "y", .size_bytes = 125000});
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second frame waits for the first to finish transmitting.
  EXPECT_EQ((arrivals[1] - arrivals[0]).nanos(), Duration::seconds(1.0).nanos());
}

TEST_F(NetFixture, OutOfRangeDropsAtSendTime) {
  const NodeId a = add({0, 0}, 100.0), b = add({500, 0}, 100.0);
  EXPECT_FALSE(net.send(a, b, Message{.kind = "p", .size_bytes = 10}));
  EXPECT_EQ(net.frames_dropped(), 1u);
}

TEST_F(NetFixture, DownNodeNeitherSendsNorReceives) {
  const NodeId a = add({0, 0}), b = add({100, 0});
  int got = 0;
  net.set_handler(b, [&](const Message&) { ++got; });
  net.set_node_up(b, false);
  EXPECT_FALSE(net.send(a, b, Message{.kind = "p", .size_bytes = 10}));
  net.set_node_up(b, true);
  net.set_node_up(a, false);
  EXPECT_FALSE(net.send(a, b, Message{.kind = "p", .size_bytes = 10}));
  sim.run();
  EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, BroadcastReachesOnlyNodesInRange) {
  const NodeId a = add({0, 0}, 150.0);
  const NodeId near1 = add({100, 0});
  const NodeId near2 = add({0, 120});
  const NodeId far = add({400, 0});
  int near_got = 0, far_got = 0;
  net.set_handler(near1, [&](const Message&) { ++near_got; });
  net.set_handler(near2, [&](const Message&) { ++near_got; });
  net.set_handler(far, [&](const Message&) { ++far_got; });
  EXPECT_EQ(net.broadcast(a, Message{.kind = "hello", .size_bytes = 10}), 2u);
  sim.run();
  EXPECT_EQ(near_got, 2);
  EXPECT_EQ(far_got, 0);
}

TEST_F(NetFixture, MultiHopRouting) {
  // Chain 0 - 1 - 2 - 3 with 200 m spacing, 300 m range.
  const NodeId n0 = add({0, 0}), n1 = add({200, 0}), n2 = add({400, 0}),
               n3 = add({600, 0});
  (void)n1;
  (void)n2;
  int got = 0;
  net.set_handler(n3, [&](const Message& m) {
    ++got;
    EXPECT_EQ(m.hops, 3);
    EXPECT_EQ(m.src, n0);
  });
  EXPECT_TRUE(net.route_and_send(n0, n3, Message{.kind = "data", .size_bytes = 50}));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, RouteFailsAcrossPartition) {
  const NodeId a = add({0, 0}, 100.0);
  const NodeId b = add({1000, 0}, 100.0);
  EXPECT_FALSE(net.route_and_send(a, b, Message{.kind = "p", .size_bytes = 10}));
  EXPECT_EQ(net.metrics().counter("net.drop.no_route"), 1.0);
}

TEST_F(NetFixture, RouteRecomputedAfterNodeFailure) {
  const NodeId n0 = add({0, 0}), relay = add({200, 0}), n2 = add({400, 0});
  EXPECT_TRUE(net.route_and_send(n0, n2, Message{.kind = "p", .size_bytes = 10}));
  net.set_node_up(relay, false);
  EXPECT_FALSE(net.route_and_send(n0, n2, Message{.kind = "p", .size_bytes = 10}));
  net.set_node_up(relay, true);
  EXPECT_TRUE(net.route_and_send(n0, n2, Message{.kind = "p", .size_bytes = 10}));
}

TEST_F(NetFixture, RouteRecomputedAfterMovement) {
  const NodeId a = add({0, 0}), b = add({1000, 0});
  EXPECT_FALSE(net.route_and_send(a, b, Message{.kind = "p", .size_bytes = 10}));
  net.set_position(b, {250, 0});
  EXPECT_TRUE(net.route_and_send(a, b, Message{.kind = "p", .size_bytes = 10}));
}

TEST_F(NetFixture, SelfSendDeliversLocally) {
  const NodeId a = add({0, 0});
  int got = 0;
  net.set_handler(a, [&](const Message& m) {
    ++got;
    EXPECT_EQ(m.hops, 0);
  });
  EXPECT_TRUE(net.route_and_send(a, a, Message{.kind = "self", .size_bytes = 1}));
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, RouteAndSendToDownSelfDropsInsteadOfDelivering) {
  // Regression: the src == dst fast path used to invoke the handler even
  // when the node was DOWN — a dead radio delivered to itself.
  const NodeId a = add({0, 0});
  int got = 0;
  net.set_handler(a, [&](const Message&) { ++got; });
  net.set_node_up(a, false);
  EXPECT_FALSE(net.route_and_send(a, a, Message{.kind = "self", .size_bytes = 1}));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.frames_dropped(), 1u);
  EXPECT_EQ(net.metrics().counter("net.drop.node_down"), 1.0);
  // Back up: local delivery works again.
  net.set_node_up(a, true);
  EXPECT_TRUE(net.route_and_send(a, a, Message{.kind = "self", .size_bytes = 1}));
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, RouteAndSendUnknownIdsDropInsteadOfThrowing) {
  // Regression: out-of-range src/dst used to throw std::out_of_range from
  // the slab .at().
  const NodeId a = add({0, 0});
  const NodeId ghost = 57;
  EXPECT_NO_THROW({
    EXPECT_FALSE(net.route_and_send(a, ghost, Message{.kind = "m", .size_bytes = 1}));
    EXPECT_FALSE(net.route_and_send(ghost, a, Message{.kind = "m", .size_bytes = 1}));
    EXPECT_FALSE(net.route_and_send(ghost, ghost, Message{.kind = "m", .size_bytes = 1}));
  });
  EXPECT_EQ(net.frames_dropped(), 3u);
  EXPECT_EQ(net.metrics().counter("net.drop.no_route"), 3.0);
}

namespace {

void expect_identical_topologies(const Topology& got, const Topology& want,
                                 const char* what) {
  ASSERT_EQ(got.node_count(), want.node_count()) << what;
  ASSERT_EQ(got.edge_count(), want.edge_count()) << what;
  for (NodeId v = 0; v < want.node_count(); ++v) {
    const auto& gn = got.neighbors(v);
    const auto& wn = want.neighbors(v);
    ASSERT_EQ(gn.size(), wn.size()) << what << " node " << v;
    for (std::size_t i = 0; i < wn.size(); ++i) {
      // Bit-identical: same neighbor order (Dijkstra tie-breaks) and the
      // exact same FP weight.
      EXPECT_EQ(gn[i].id, wn[i].id) << what << " node " << v << " slot " << i;
      EXPECT_EQ(gn[i].weight, wn[i].weight) << what << " node " << v << " slot " << i;
    }
  }
}

/// Edge pairs without weights: a move that keeps every link still drifts
/// the weights, but must not bump the topology epoch.
std::vector<std::pair<NodeId, NodeId>> edge_pairs(const Topology& t) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const Edge& e : t.edges()) out.emplace_back(e.a, e.b);
  return out;
}

/// Drives `mutate(net, ops)` for 60 rounds and checks after each that the
/// patched edge store (both the copy and the borrowed view) is identical
/// to the brute-force oracle, neighbor order and exact weights included.
template <typename Mutate>
void run_maintenance_equivalence(Mutate mutate) {
  Simulator sim;
  Network net{sim, ChannelModel(2.0, 0.0), Rng(7)};
  Rng ops(0xC0FFEE);
  for (int round = 0; round < 60; ++round) {
    mutate(net, ops);
    const Topology want = brute_connectivity(net);
    expect_identical_topologies(net.connectivity(), want, "store vs oracle");
    expect_identical_topologies(net.topology_view(), want, "view vs oracle");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

TEST(NetworkIncremental, StoreMatchesRebuildUnderMoveChurn) {
  run_maintenance_equivalence([](Network& n, Rng& r) {
    if (n.node_count() < 30) {
      n.add_node({r.uniform(0, 1000), r.uniform(0, 1000)},
                 RadioProfile{.range_m = 220.0, .data_rate_bps = 1e6});
      return;
    }
    const auto id = static_cast<NodeId>(r.uniform_int(0, static_cast<std::int64_t>(n.node_count()) - 1));
    n.set_position(id, {r.uniform(0, 1000), r.uniform(0, 1000)});
  });
}

TEST(NetworkIncremental, StoreMatchesRebuildUnderLivenessChurnAndGrowth) {
  run_maintenance_equivalence([](Network& n, Rng& r) {
    const double roll = r.uniform(0.0, 1.0);
    if (n.node_count() < 12 || roll < 0.2) {
      // Growing ranges force grid rebuilds mid-churn; the store must ride
      // through them untouched.
      n.add_node({r.uniform(0, 800), r.uniform(0, 800)},
                 RadioProfile{.range_m = r.uniform(120.0, 320.0),
                              .data_rate_bps = 1e6});
    } else if (roll < 0.6) {
      const auto id = static_cast<NodeId>(r.uniform_int(0, static_cast<std::int64_t>(n.node_count()) - 1));
      n.set_node_up(id, !n.node_up(id));
    } else {
      const auto id = static_cast<NodeId>(r.uniform_int(0, static_cast<std::int64_t>(n.node_count()) - 1));
      // Down nodes reposition silently; the store must ignore them until
      // they come back up.
      n.set_position(id, {r.uniform(0, 800), r.uniform(0, 800)});
    }
  });
}

TEST(NetworkIncremental, BatchMatchesSequentialAndOracleUnderChurn) {
  // Seeded batches of local steps and cross-row teleports over three
  // layers with gateways and down nodes. A batch may move a node to where
  // it is, or away and back to its start. After each batch the store,
  // weights synced, must equal the brute-force oracle and a twin network
  // given the same moves one set_position at a time, and the epoch must
  // bump iff the batch changed the edge set.
  Simulator sim;
  Network batched{sim, ChannelModel(2.0, 0.0), Rng(11)};
  Network twin{sim, ChannelModel(2.0, 0.0), Rng(11)};
  Rng drive(0xBA7C4);
  constexpr double kSide = 1200.0;
  const double ranges[] = {140.0, 230.0, 360.0};
  for (int i = 0; i < 90; ++i) {
    const Vec2 p{drive.uniform(0, kSide), drive.uniform(0, kSide)};
    const auto layer = static_cast<LayerId>(i % 3);
    const RadioProfile radio{.range_m = ranges[layer], .data_rate_bps = 1e6};
    const NodeId a = batched.add_node(p, radio, layer);
    const NodeId b = twin.add_node(p, radio, layer);
    ASSERT_EQ(a, b);
    if (i % 5 == 0) {
      batched.set_gateway(a, true);
      twin.set_gateway(b, true);
    }
  }
  const auto n = static_cast<std::int64_t>(batched.node_count());
  const auto pick = [&] { return static_cast<NodeId>(drive.uniform_int(0, n - 1)); };
  int changed_batches = 0, quiet_batches = 0;
  std::vector<Network::Move> moves;
  for (int batch = 0; batch < 150; ++batch) {
    // Liveness and gateway churn between batches, on both networks.
    if (batch % 4 == 0) {
      const NodeId id = pick();
      batched.set_node_up(id, !batched.node_up(id));
      twin.set_node_up(id, !twin.node_up(id));
    }
    if (batch % 7 == 0) {
      const NodeId id = pick();
      batched.set_gateway(id, !batched.is_gateway(id));
      twin.set_gateway(id, !twin.is_gateway(id));
    }
    moves.clear();
    // Every third batch is small, with short steps, so many keep their
    // edge set.
    const bool small = batch % 3 == 2;
    const int count = static_cast<int>(drive.uniform_int(1, small ? 3 : 40));
    const double step = small ? 4.0 : 80.0;
    for (int m = 0; m < count; ++m) {
      const NodeId id = pick();
      const Vec2 at = batched.position(id);
      const double kind = drive.uniform();
      if (kind < 0.55 || (small && kind < 0.85)) {
        moves.push_back({id, {at.x + drive.uniform(-step, step), at.y + drive.uniform(-step, step)}});
      } else if (kind < 0.85) {
        moves.push_back({id, {drive.uniform(0, kSide), drive.uniform(0, kSide)}});
      } else if (kind < 0.93) {
        moves.push_back({id, at});
      } else {
        moves.push_back({id, {drive.uniform(0, kSide), drive.uniform(0, kSide)}});
        moves.push_back({id, at});
      }
    }
    const auto before = edge_pairs(brute_connectivity(batched));
    const std::uint64_t epoch = batched.topology_epoch();
    batched.move_batch(moves);
    for (const Network::Move& m : moves) twin.set_position(m.id, m.to);
    const std::string what = "batch " + std::to_string(batch);
    const Topology want = brute_connectivity(batched);
    expect_identical_topologies(batched.connectivity(), want, (what + ": store vs oracle").c_str());
    expect_identical_topologies(batched.connectivity(), twin.connectivity(),
                                (what + ": batch vs one move at a time").c_str());
    if (::testing::Test::HasFatalFailure()) return;
    const bool changed = edge_pairs(want) != before;
    EXPECT_EQ(batched.topology_epoch() != epoch, changed) << what;
    EXPECT_LE(batched.topology_epoch(), epoch + 1) << what << ": one bump per batch at most";
    (changed ? changed_batches : quiet_batches) += 1;
  }
  // Both sides of the iff were exercised.
  EXPECT_GT(changed_batches, 40);
  EXPECT_GT(quiet_batches, 10);
  // An unknown id throws before anything moves.
  const Vec2 at0 = batched.position(0);
  const std::uint64_t epoch = batched.topology_epoch();
  const Network::Move bad[] = {{0, {at0.x + 300, at0.y}}, {static_cast<NodeId>(n), {1, 1}}};
  EXPECT_THROW(batched.move_batch(bad), std::out_of_range);
  EXPECT_EQ(batched.position(0), at0);
  EXPECT_EQ(batched.topology_epoch(), epoch);
  expect_identical_topologies(batched.connectivity(), brute_connectivity(batched),
                              "store vs oracle after a rejected batch");
}

TEST_F(NetFixture, MemoryFootprintTracksNodeCount) {
  const auto before = net.memory_footprint();
  Rng r(9);
  for (int i = 0; i < 64; ++i) add({r.uniform(0, 2000), r.uniform(0, 2000)});
  const auto after = net.memory_footprint();
  EXPECT_GT(after.node_slabs, before.node_slabs);
  EXPECT_GT(after.grid, 0u);
  EXPECT_GT(after.links, 0u);
  EXPECT_EQ(after.total(), after.node_slabs + after.grid + after.links +
                               after.route_cache + after.pending);
}

TEST_F(NetFixture, ConnectivitySnapshotMatchesRanges) {
  add({0, 0});
  add({100, 0});
  add({1000, 1000});
  const Topology t = net.connectivity();
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_FALSE(t.has_edge(0, 2));
}

TEST_F(NetFixture, TransmitHookAndByteAccounting) {
  const NodeId a = add({0, 0}), b = add({100, 0});
  std::size_t hook_bytes = 0;
  net.set_transmit_hook([&](NodeId n, std::size_t bytes) {
    EXPECT_EQ(n, a);
    hook_bytes += bytes;
  });
  net.send(a, b, Message{.kind = "p", .size_bytes = 77});
  sim.run();
  EXPECT_EQ(hook_bytes, 77u);
  EXPECT_EQ(net.bytes_sent(a), 77u);
  EXPECT_EQ(net.total_bytes_sent(), 77u);
}

TEST(NetworkLoss, LossyChannelDropsSomeFrames) {
  Simulator sim;
  ChannelModel lossy(2.0, 0.0);
  Network net(sim, lossy, Rng(7));
  const NodeId a = net.add_node({0, 0}, {.range_m = 300, .data_rate_bps = 1e6,
                                         .base_loss = 0.5});
  const NodeId b = net.add_node({10, 0}, {.range_m = 300, .data_rate_bps = 1e6,
                                          .base_loss = 0.5});
  int got = 0;
  net.set_handler(b, [&](const Message&) { ++got; });
  const int sent = 1000;
  for (int i = 0; i < sent; ++i) net.send(a, b, Message{.kind = "p", .size_bytes = 10});
  sim.run();
  EXPECT_GT(got, 300);
  EXPECT_LT(got, 700);
  EXPECT_EQ(net.frames_dropped(), static_cast<std::uint64_t>(sent - got));
}

TEST(NetworkTrace, FrameSpansPairUpAndInFlightCounterDrains) {
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(11));
  const NodeId a = net.add_node({0, 0}, {.range_m = 300, .data_rate_bps = 1e6,
                                         .base_loss = 0.4});
  const NodeId b = net.add_node({100, 0}, {.range_m = 300, .data_rate_bps = 1e6,
                                           .base_loss = 0.4});
  sim.tracer().enable(1u << 14);
  const int sent = 30;
  for (int i = 0; i < sent; ++i) net.send(a, b, Message{.kind = "d", .size_bytes = 32});
  sim.run();
  sim.tracer().disable();
  ASSERT_GT(net.frames_dropped(), 0u);

  std::set<std::uint64_t> begun, ended;
  std::size_t drop_instants = 0;
  double last_in_flight = -1.0;
  bool counter_non_negative = true;
  for (const auto& r : sim.tracer().snapshot()) {
    const std::string& name = sim.tracer().name(r.name);
    if (name == "net.frame") {
      (r.phase == trace::Phase::kAsyncBegin ? begun : ended).insert(r.async_id);
    } else if (name == "net.drop") {
      ++drop_instants;
    } else if (name == "net.frames_in_flight") {
      counter_non_negative &= r.value >= 0.0;
      last_in_flight = r.value;
    }
  }
  // Every frame span opened also closed, delivered or lost on the air.
  EXPECT_EQ(begun.size(), static_cast<std::size_t>(sent));
  EXPECT_EQ(ended, begun);
  EXPECT_EQ(drop_instants, net.frames_dropped());
  EXPECT_TRUE(counter_non_negative);
  EXPECT_DOUBLE_EQ(last_in_flight, 0.0);
  // The net category is what Perfetto filters on.
  EXPECT_EQ(sim.tracer().category(sim.tracer().intern("net.frame")), "net");
}

TEST(NetworkJam, JammingBlocksTrafficDuringWindow) {
  Simulator sim;
  ChannelModel ch(2.0, 0.0);
  ch.add_jammer({.center = {0, 0},
                 .radius_m = 500,
                 .start = SimTime::seconds(10),
                 .end = SimTime::seconds(20),
                 .induced_loss = 1.0});
  Network net(sim, ch, Rng(7));
  const NodeId a = net.add_node({0, 0}, {.range_m = 300, .base_loss = 0.0});
  const NodeId b = net.add_node({100, 0}, {.range_m = 300, .base_loss = 0.0});
  int got = 0;
  net.set_handler(b, [&](const Message&) { ++got; });

  // One frame per second for 30 s.
  for (int t = 0; t < 30; ++t) {
    sim.schedule_at(SimTime::seconds(t), [&net, a, b] {
      net.send(a, b, Message{.kind = "p", .size_bytes = 10});
    });
  }
  sim.run();
  EXPECT_EQ(got, 20);  // the 10 frames inside [10, 20) are jammed
}


// ------------------------------------------------------ Urban occlusion ----

TEST(Channel, BuildingBlocksLineOfSight) {
  ChannelModel ch(2.0, 0.0);
  ch.add_building({{40, -10}, {60, 10}});  // wall between x=40..60
  RadioProfile r{.range_m = 300, .base_loss = 0.0};
  EXPECT_FALSE(ch.in_range({0, 0}, r, {100, 0}, r));  // LoS crosses the wall
  EXPECT_TRUE(ch.in_range({0, 0}, r, {100, 50}, r));  // path above the wall
  EXPECT_DOUBLE_EQ(ch.loss_probability({0, 0}, r, {100, 0}, r, SimTime::zero()),
                   1.0);
  // A long link that grazes the wall: the segment test rounds differently
  // from each end, and the answer must not depend on which radio asks.
  const RadioProfile wide{.range_m = 1000, .base_loss = 0.0};
  const Vec2 p{-138.11511892082862, -51.383380771966415};
  const Vec2 q{720.99802779974812, 128.07292054720588};
  EXPECT_EQ(ch.in_range(p, wide, q, wide), ch.in_range(q, wide, p, wide));
  EXPECT_EQ(ch.line_of_sight_blocked(p, q), ch.line_of_sight_blocked(q, p));
}

TEST(Channel, EndpointInsideBuildingIsBlocked) {
  ChannelModel ch(2.0, 0.0);
  ch.add_building({{40, -10}, {60, 10}});
  EXPECT_TRUE(ch.line_of_sight_blocked({50, 0}, {200, 0}));
}

TEST(NetworkUrban, RoutingBendsAroundBuilding) {
  Simulator sim;
  ChannelModel ch(2.0, 0.0);
  // A wall splits the direct corridor; a relay sits above it.
  ch.add_building({{90, -50}, {110, 50}});
  Network net(sim, ch, Rng(5));
  const NodeId a = net.add_node({0, 0}, {.range_m = 160, .base_loss = 0.0});
  const NodeId b = net.add_node({200, 0}, {.range_m = 160, .base_loss = 0.0});
  const NodeId relay = net.add_node({100, 120}, {.range_m = 160, .base_loss = 0.0});
  EXPECT_FALSE(net.connectivity().has_edge(a, b));  // wall blocks direct link
  int got_hops = -1;
  net.set_handler(b, [&](const Message& m) { got_hops = m.hops; });
  // But the relay sees over.
  ASSERT_TRUE(net.route_and_send(a, b, Message{.kind = "p", .size_bytes = 8}));
  sim.run();
  EXPECT_EQ(got_hops, 2);
  (void)relay;
}

TEST(Geometry, SegmentRectIntersection) {
  const sim::Rect r{{0, 0}, {10, 10}};
  EXPECT_TRUE(sim::segment_intersects_rect({-5, 5}, {15, 5}, r));   // through
  EXPECT_TRUE(sim::segment_intersects_rect({5, 5}, {20, 20}, r));   // from inside
  EXPECT_FALSE(sim::segment_intersects_rect({-5, 15}, {15, 15}, r)); // above
  EXPECT_FALSE(sim::segment_intersects_rect({-5, -5}, {-1, 15}, r)); // left of
  EXPECT_TRUE(sim::segment_intersects_rect({-5, -5}, {5, 25}, r));   // clips corner area
}


// ----------------------------------------------------------- Dispatcher ----

TEST(Dispatcher, RoutesByKind) {
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(3));
  const NodeId a = net.add_node({0, 0}, {.range_m = 300, .base_loss = 0.0});
  const NodeId b = net.add_node({100, 0}, {.range_m = 300, .base_loss = 0.0});
  Dispatcher disp(net);
  int pings = 0, pongs = 0;
  disp.on(b, "ping", [&](const Message&) { ++pings; });
  disp.on(b, "pong", [&](const Message&) { ++pongs; });

  net.send(a, b, Message{.kind = "ping", .size_bytes = 8});
  net.send(a, b, Message{.kind = "pong", .size_bytes = 8});
  net.send(a, b, Message{.kind = "mystery", .size_bytes = 8});
  sim.run();
  EXPECT_EQ(pings, 1);
  EXPECT_EQ(pongs, 1);
}

TEST(Dispatcher, ReplacingHandlerTakesEffect) {
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(3));
  const NodeId a = net.add_node({0, 0}, {.range_m = 300, .base_loss = 0.0});
  const NodeId b = net.add_node({100, 0}, {.range_m = 300, .base_loss = 0.0});
  Dispatcher disp(net);
  int first = 0, second = 0;
  disp.on(b, "k", [&](const Message&) { ++first; });
  disp.on(b, "k", [&](const Message&) { ++second; });
  net.send(a, b, Message{.kind = "k", .size_bytes = 8});
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// Determinism: identical seeds => identical delivery counts, even with loss.
class NetDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetDeterminism, SameSeedSameOutcome) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    Network net(sim, ChannelModel(), Rng(seed));
    std::vector<NodeId> ids;
    Rng layout(123);
    for (int i = 0; i < 30; ++i) {
      ids.push_back(net.add_node({layout.uniform(0, 500), layout.uniform(0, 500)},
                                 {.range_m = 200, .base_loss = 0.2}));
    }
    int got = 0;
    for (auto id : ids) net.set_handler(id, [&](const Message&) { ++got; });
    for (int i = 0; i < 100; ++i) {
      net.send(ids[static_cast<std::size_t>(i) % ids.size()],
               ids[static_cast<std::size_t>(i * 7 + 1) % ids.size()],
               Message{.kind = "p", .size_bytes = 20});
    }
    sim.run();
    return got;
  };
  EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetDeterminism, ::testing::Values(1ULL, 7ULL, 1234ULL));

// ---------------------------------------------------------- SpatialGrid ----

TEST(SpatialGrid, NeighborhoodIsSupersetOfRadioDisc) {
  SpatialGrid grid(250.0);
  Rng rng(7);
  std::vector<Vec2> pts;
  for (NodeId i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(0, 2000), rng.uniform(0, 2000)});
    grid.insert(i, pts.back(), 250.0);
  }
  std::vector<NodeId> out;
  for (NodeId q = 0; q < 300; q += 17) {
    out.clear();
    grid.neighborhood(pts[q], out);
    std::sort(out.begin(), out.end());
    for (NodeId i = 0; i < 300; ++i) {
      if (sim::distance(pts[q], pts[i]) <= 250.0) {
        EXPECT_TRUE(std::binary_search(out.begin(), out.end(), i))
            << "node " << i << " within range of " << q << " but not in neighborhood";
      }
    }
  }
}

TEST(SpatialGrid, MoveTracksCellMembership) {
  SpatialGrid grid(100.0);
  grid.insert(0, {10, 10}, 100.0);
  grid.insert(1, {50, 50}, 100.0);
  std::vector<NodeId> out;
  grid.neighborhood({10, 10}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<NodeId>{0, 1}));

  // Move across cells: the id leaves the old neighborhood, joins the new.
  grid.move(1, {50, 50}, {950, 950});
  out.clear();
  grid.neighborhood({10, 10}, out);
  EXPECT_EQ(out, (std::vector<NodeId>{0}));
  out.clear();
  grid.neighborhood({950, 950}, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1}));

  // Within-cell move: membership unchanged.
  grid.move(0, {10, 10}, {90, 90});
  out.clear();
  grid.neighborhood({10, 10}, out);
  EXPECT_EQ(out, (std::vector<NodeId>{0}));

  grid.remove(0, {90, 90});
  out.clear();
  grid.neighborhood({10, 10}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(grid.size(), 1u);
}

TEST(SpatialGrid, FarAndNonFiniteCoordinatesSaturate) {
  // A restored checkpoint can carry any double as a position. Cell indices
  // saturate instead of overflowing: opposite far ends stay apart, and a
  // query at the edge of the index space does not wrap around.
  SpatialGrid grid(100.0);
  grid.insert(1, {1e300, 1e300}, 100.0);
  grid.insert(2, {std::nan(""), 0.0}, 100.0);
  std::vector<NodeId> out;
  grid.neighborhood({-1e300, -1e300}, out);
  EXPECT_TRUE(out.empty());
  grid.neighborhood({1e300, 1e300}, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1}));
  out.clear();
  grid.neighborhood({-1e300, 0.0}, out);
  EXPECT_EQ(out, (std::vector<NodeId>{2}));
  grid.remove(2, {std::nan(""), 0.0});
  EXPECT_EQ(grid.size(), 1u);
}

TEST(SpatialGrid, BlockIsNineCellsEachIdOnce) {
  // Two ids per cell over a 10x10-cell patch of 100 m cells.
  SpatialGrid grid(100.0);
  std::vector<Vec2> at;
  for (int cx = 0; cx < 10; ++cx) {
    for (int cy = 0; cy < 10; ++cy) {
      for (const double off : {20.0, 70.0}) {
        at.push_back({cx * 100.0 + off, cy * 100.0 + off});
        grid.insert(static_cast<NodeId>(at.size() - 1), at.back(), 100.0);
      }
    }
  }
  const auto in_block = [](Vec2 p, Vec2 q) {
    return std::abs(std::floor(p.x / 100.0) - std::floor(q.x / 100.0)) <= 1.0 &&
           std::abs(std::floor(p.y / 100.0) - std::floor(q.y / 100.0)) <= 1.0;
  };
  // Every cell of the patch and a ring of empty cells around it, so the
  // blocks meet the patch's edges and corners and straddle tile edges at
  // every column offset.
  std::vector<Vec2> queries;
  for (int cx = -2; cx < 12; ++cx) {
    for (int cy = -2; cy < 12; ++cy) queries.push_back({cx * 100.0 + 45, cy * 100.0 + 55});
  }
  for (const Vec2 q : queries) {
    std::vector<NodeId> got;
    int spans = 0;
    grid.visit_block(q, [&](const SpatialGrid::Entry* e, const SpatialGrid::Entry* last) {
      ++spans;
      EXPECT_NE(e, last) << "empty span";
      for (; e != last; ++e) got.push_back(e->id);
    });
    EXPECT_LE(spans, 6);
    std::vector<NodeId> listed;
    grid.neighborhood(q, listed);
    EXPECT_EQ(listed, got) << "neighborhood is not the visited ids";
    std::sort(got.begin(), got.end());
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end()) << "an id appears twice";
    std::vector<NodeId> want;
    for (NodeId id = 0; id < at.size(); ++id) {
      if (in_block(at[id], q)) want.push_back(id);
    }
    EXPECT_EQ(got, want) << "block at (" << q.x << ", " << q.y << ")";
  }
}

TEST(SpatialGrid, BlockVisitMatchesBruteFilterUnderChurn) {
  // Seeded churn against a brute model: inserts, removes, local steps,
  // cross-row teleports, moves out of the box and far away, and resets.
  // After every operation the block visit at each of random point pairs
  // must hold every member whose cell is within one cell of the point's
  // cell exactly once, with the position and range last given, no other
  // id twice and no non-member, in at most six spans. Three cell sizes;
  // the 10 m grid is 250 columns wide, so its rows span many tiles.
  struct Case {
    double cell, width, height;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Case& c : {Case{10, 2500, 200}, Case{100, 2500, 2000}, Case{1000, 2500, 2000}}) {
    SpatialGrid grid(c.cell);
    constexpr std::size_t kIds = 300;
    std::vector<std::optional<SpatialGrid::Entry>> model(kIds);
    std::size_t members = 0;
    Rng rng(static_cast<std::uint64_t>(c.cell) * 7919 + 5);
    const auto area_point = [&] {
      return Vec2{rng.uniform(0, c.width), rng.uniform(0, c.height)};
    };
    const auto any_member = [&]() -> std::optional<NodeId> {
      if (members == 0) return std::nullopt;
      for (;;) {
        const auto id = static_cast<NodeId>(rng.uniform_int(0, kIds - 1));
        if (model[id]) return id;
      }
    };
    const auto endpoint = [&] {
      switch (rng.uniform_int(0, 3)) {
        case 0: return area_point();
        case 1: {
          if (const auto id = any_member()) return model[*id]->p;
          return area_point();
        }
        case 2: return Vec2{rng.uniform(-5 * c.cell, c.width + 5 * c.cell), -3 * c.cell};
        default: return Vec2{-1e12, rng.uniform(0, c.height)};
      }
    };
    const auto move_to = [&](NodeId id, Vec2 to) {
      grid.move(id, model[id]->p, to);
      model[id]->p = to;
    };

    for (int op = 0; op < 700; ++op) {
      std::string what;
      const std::int64_t kind = rng.uniform_int(0, 99);
      const std::optional<NodeId> m = any_member();
      if (kind < 30 || !m) {
        const auto id = static_cast<NodeId>(rng.uniform_int(0, kIds - 1));
        if (model[id]) continue;
        // Ranges up to 1.3 cells: a longer one widens the cells.
        const SpatialGrid::Entry e{area_point(), rng.uniform(0.2, 1.3) * c.cell, id};
        grid.insert(id, e.p, e.range_m);
        model[id] = e;
        ++members;
        what = "insert";
      } else if (kind < 45) {
        grid.remove(*m, model[*m]->p);
        model[*m].reset();
        --members;
        what = "remove";
      } else if (kind < 75) {
        const Vec2 p = model[*m]->p;
        move_to(*m, {p.x + rng.uniform(-0.6, 0.6) * c.cell, p.y + rng.uniform(-0.6, 0.6) * c.cell});
        what = "local step";
      } else if (kind < 90) {
        move_to(*m, area_point());
        what = "teleport";
      } else if (kind < 96) {
        move_to(*m, {c.width + rng.uniform(1, 20) * c.cell, -rng.uniform(1, 20) * c.cell});
        what = "out-of-box move";
      } else if (kind < 98) {
        move_to(*m, kind == 96 ? Vec2{1e9, -1e9} : Vec2{std::nan(""), 50.0});
        what = "far move";
      } else {
        grid.reset(c.cell);
        for (auto& slot : model) slot.reset();
        members = 0;
        what = "reset";
      }
      ASSERT_EQ(grid.size(), members) << "cell " << c.cell << " op " << op << " " << what;

      const double inv = 1.0 / grid.cell_size();
      const auto near_cell = [&](Vec2 a, Vec2 b) {
        return std::abs(std::floor(a.x * inv) - std::floor(b.x * inv)) <= 1.0 &&
               std::abs(std::floor(a.y * inv) - std::floor(b.y * inv)) <= 1.0;
      };
      for (int q = 0; q < 6; ++q) {
        const Vec2 from = endpoint();
        const Vec2 to = rng.bernoulli(0.5)
                            ? Vec2{from.x + rng.uniform(-2, 2) * c.cell,
                                   from.y + rng.uniform(-2, 2) * c.cell}
                            : endpoint();
        for (const Vec2 p : {from, to}) {
          std::vector<int> seen(kIds, 0);
          std::size_t stale = 0;
          int spans = 0;
          grid.visit_block(p, [&](const SpatialGrid::Entry* e, const SpatialGrid::Entry* last) {
            ++spans;
            for (; e != last; ++e) {
              if (e->id >= kIds || !model[e->id]) {
                ++stale;
                continue;
              }
              ++seen[e->id];
              const SpatialGrid::Entry& want = *model[e->id];
              if (bits(e->p.x) != bits(want.p.x) || bits(e->p.y) != bits(want.p.y) ||
                  bits(e->range_m) != bits(want.range_m)) {
                ++stale;
              }
            }
          });
          const std::string where = "cell " + std::to_string(c.cell) + " op " +
                                    std::to_string(op) + " after " + what + ", block at (" +
                                    std::to_string(p.x) + ", " + std::to_string(p.y) + ")";
          ASSERT_LE(spans, 6) << where;
          ASSERT_EQ(stale, 0u) << "non-member or stale entry visited, " << where;
          for (NodeId id = 0; id < kIds; ++id) {
            ASSERT_LE(seen[id], 1) << "id " << id << " visited twice, " << where;
            if (model[id] && near_cell(model[id]->p, p)) {
              ASSERT_EQ(seen[id], 1) << "id " << id << " missing, " << where;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------- Topology bulk build ----

TEST(Topology, BulkConstructorMatchesIncrementalBuild) {
  Rng rng(3);
  std::vector<Edge> list;
  std::set<std::pair<NodeId, NodeId>> seen;
  for (int i = 0; i < 200; ++i) {
    NodeId a = static_cast<NodeId>(rng.uniform_int(0, 39));
    NodeId b = static_cast<NodeId>(rng.uniform_int(0, 39));
    if (a == b) continue;
    if (!seen.insert({std::min(a, b), std::max(a, b)}).second) continue;
    list.push_back({a, b, rng.uniform(1, 10)});
  }
  Topology incremental(40);
  for (const Edge& e : list) incremental.add_edge_unique(e.a, e.b, e.weight);
  const Topology bulk(40, list);

  EXPECT_EQ(bulk.edge_count(), incremental.edge_count());
  for (NodeId v = 0; v < 40; ++v) {
    const auto& bn = bulk.neighbors(v);
    const auto& in = incremental.neighbors(v);
    ASSERT_EQ(bn.size(), in.size()) << "node " << v;
    for (std::size_t i = 0; i < bn.size(); ++i) {
      EXPECT_EQ(bn[i].id, in[i].id) << "node " << v << " slot " << i;
      EXPECT_DOUBLE_EQ(bn[i].weight, in[i].weight);
    }
  }
}

TEST(Topology, BulkConstructorSkipsSelfLoopsAndValidates) {
  const std::vector<Edge> ok{{0, 1, 1.0}, {2, 2, 5.0}, {1, 2, 2.0}};
  const Topology t(3, ok);
  EXPECT_EQ(t.edge_count(), 2u);  // the self-loop is ignored
  const std::vector<Edge> bad{{0, 7, 1.0}};
  EXPECT_THROW(Topology(3, bad), std::out_of_range);
}

// ----------------------------------------- Brute-force oracle identity ----

namespace {

/// A scattered population on one Network; used to compare the production
/// grid path against the brute-force oracle on identical state.
std::vector<NodeId> scatter(Network& net, Rng& layout, int n, double range) {
  std::vector<NodeId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(net.add_node({layout.uniform(0, 2000), layout.uniform(0, 2000)},
                               RadioProfile{.range_m = range, .data_rate_bps = 1e6}));
  }
  return ids;
}

}  // namespace

TEST_F(NetFixture, ConnectivityIdenticalGridVsBrute) {
  Rng layout(41);
  scatter(net, layout, 150, 300.0);
  net.set_node_up(11, false);
  const Topology want = brute_connectivity(net);
  EXPECT_GT(want.edge_count(), 0u);
  expect_identical_topologies(net.connectivity(), want, "store vs oracle");
}

TEST_F(NetFixture, NodesNearExactFilterIdenticalGridVsBrute) {
  Rng layout(43);
  scatter(net, layout, 150, 300.0);
  net.set_node_up(7, false);  // down nodes must be absent from both
  for (const Vec2 q : {Vec2{100, 100}, Vec2{1000, 1000}, Vec2{1999, 50}}) {
    for (const double r : {150.0, 400.0, 2500.0}) {
      const std::vector<NodeId> cand = net.nodes_near(q, r);
      EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
      std::vector<NodeId> got, want;
      for (const NodeId id : cand) {
        if (sim::distance(net.position(id), q) <= r) got.push_back(id);
      }
      for (NodeId id = 0; id < net.node_count(); ++id) {
        if (net.node_up(id) && sim::distance(net.position(id), q) <= r) {
          want.push_back(id);
        }
      }
      EXPECT_EQ(got, want) << "q=(" << q.x << "," << q.y << ") r=" << r;
    }
  }
}

TEST_F(NetFixture, NodesNearUnboundedRadiusReturnsEveryLiveNode) {
  Rng layout(47);
  scatter(net, layout, 60, 300.0);
  net.set_node_up(5, false);
  std::vector<NodeId> live;
  for (NodeId id = 0; id < net.node_count(); ++id) {
    if (net.node_up(id)) live.push_back(id);
  }
  // An infinite radius covers the plane, a huge finite one would span
  // ~1e290 empty cells, and none of them, nor NaN, may reach the int cast
  // of the cell span (undefined behaviour). All fall back to the occupied
  // cells.
  EXPECT_EQ(net.nodes_near({1000, 1000}, std::numeric_limits<double>::infinity()), live);
  EXPECT_EQ(net.nodes_near({-5e6, 7e6}, 1e300), live);
  const std::vector<NodeId> nan_hits =
      net.nodes_near({0, 0}, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::is_sorted(nan_hits.begin(), nan_hits.end()));
}

TEST_F(NetFixture, BroadcastReceiversAreOracleNeighborsInIdOrder) {
  // Lossless channel: every offered frame arrives, so the receivers of one
  // broadcast are exactly the oracle neighbors of the sender, and they are
  // delivered — and so draw their loss coins — in ascending id order.
  Rng layout(53);
  const std::vector<NodeId> ids = scatter(net, layout, 120, 300.0);
  net.set_node_up(9, false);
  std::vector<NodeId> received;
  for (const NodeId id : ids) {
    net.set_handler(id, [&received, id](const Message&) { received.push_back(id); });
  }
  const Topology oracle = brute_connectivity(net);
  for (const NodeId src : {NodeId{0}, NodeId{9}, NodeId{42}, NodeId{119}}) {
    received.clear();
    std::vector<NodeId> want;
    if (net.node_up(src)) {
      for (const Topology::Neighbor& nb : oracle.neighbors(src)) want.push_back(nb.id);
    }
    EXPECT_EQ(net.broadcast(src, Message{.kind = "hello", .size_bytes = 8}), want.size());
    sim.run();
    EXPECT_EQ(received, want) << "src " << src;
  }
}

TEST(NetworkBroadcast, TransmitHookChangesTheNetworkMidBroadcast) {
  // The transmit hook runs inside the broadcast loop. Taking down a far
  // node with many links from it must not disturb the walk over the
  // sender's receivers: each gets exactly one frame.
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(4));
  const RadioProfile r{.range_m = 300, .base_loss = 0.0};
  const NodeId src = net.add_node({0, 0}, r);
  std::vector<NodeId> receivers;
  for (const double x : {10.0, 20.0, 30.0}) receivers.push_back(net.add_node({x, 0}, r));
  const NodeId far = net.add_node({5000, 0}, r);
  for (int i = 0; i < 40; ++i) net.add_node({5000.0 + i, 10.0}, r);
  ASSERT_EQ(net.connectivity().neighbors(far).size(), 40u);
  std::vector<int> got(net.node_count(), 0);
  for (NodeId n = 0; n < net.node_count(); ++n) {
    net.set_handler(n, [&got, n](const Message&) { ++got[n]; });
  }
  bool fired = false;
  net.set_transmit_hook([&](NodeId, std::size_t) {
    if (fired) return;
    fired = true;
    net.set_node_up(far, false);
  });
  EXPECT_EQ(net.broadcast(src, Message{.kind = "hello", .size_bytes = 8}), 3u);
  sim.run();
  for (const NodeId n : receivers) EXPECT_EQ(got[n], 1) << "receiver " << n;
  EXPECT_FALSE(net.node_up(far));
}

TEST(NetworkOracle, EpochBumpsIffOracleEdgeSetChanges) {
  // Moves and gateway flips bump topology_epoch() exactly when a link
  // appears or vanishes; weight drift alone must not invalidate routes.
  Simulator sim;
  Network net(sim, ChannelModel(), Rng(8));
  Rng drive(0xE90C);
  std::vector<NodeId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(net.add_node({drive.uniform(0, 600), drive.uniform(0, 600)},
                               {.range_m = 200}, static_cast<LayerId>(i % 2)));
    if (i % 3 == 0) net.set_gateway(ids.back(), true);
  }
  int bumps = 0, quiet = 0;
  for (int step = 0; step < 400; ++step) {
    const NodeId id = ids[static_cast<std::size_t>(drive.uniform_int(0, 39))];
    const auto before = edge_pairs(brute_connectivity(net));
    const std::uint64_t epoch = net.topology_epoch();
    if (drive.uniform() < 0.3) {
      net.set_gateway(id, !net.is_gateway(id));
    } else {
      // Mostly short hops, so many moves keep their link set.
      const Vec2 p = net.position(id);
      net.set_position(id, {p.x + drive.uniform(-60, 60), p.y + drive.uniform(-60, 60)});
    }
    if (step % 50 == 0) net.set_node_up(id, !net.node_up(id));
    const bool changed = edge_pairs(brute_connectivity(net)) != before;
    if (step % 50 == 0) continue;  // liveness flips always bump; not this contract
    EXPECT_EQ(net.topology_epoch() != epoch, changed) << "step " << step;
    (changed ? bumps : quiet) += 1;
  }
  // Both sides of the iff were exercised.
  EXPECT_GT(bumps, 20);
  EXPECT_GT(quiet, 20);
}

class RouteCacheOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteCacheOracle, AnswersMatchEagerFullDijkstraUnderChurn) {
  // Route lookups interleaved with every kind of topology event. Weight-
  // only moves keep the epoch, so later lookups resume trees that started
  // under older weights: only the frozen copies keep their answers equal
  // to the oracle's full run at the first lookup. Moves leave weights
  // stale until the next lookup syncs them, so some steps add a batch of
  // several events before the reads: one sync must cover them all. The
  // oracle reads positions, never the edge store. Lossless channel, and
  // each send runs to completion, so the transmit hook records exactly the
  // hop sequence the route fixed at send time.
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(GetParam()));
  Rng drive(GetParam() * 7919 + 17);
  constexpr NodeId kNobody = ~NodeId{0};
  NodeId delivered_to = kNobody;
  auto add_random_node = [&] {
    const NodeId n = net.add_node({drive.uniform(0, 700), drive.uniform(0, 700)},
                                  {.range_m = 200, .base_loss = 0.0},
                                  static_cast<LayerId>(drive.uniform() < 0.2 ? 1 : 0));
    net.set_handler(n, [&delivered_to, n](const Message&) { delivered_to = n; });
  };
  for (int i = 0; i < 48; ++i) add_random_node();
  std::vector<NodeId> senders;
  net.set_transmit_hook([&senders](NodeId n, std::size_t) { senders.push_back(n); });
  iobt::testing::EagerRouteCache oracle(net);
  std::optional<sim::Snapshot> snap;
  auto pick = [&](std::size_t extra = 0) {
    return static_cast<NodeId>(
        drive.uniform_int(0, static_cast<std::int64_t>(net.node_count() + extra) - 1));
  };

  auto nudge = [&](NodeId n) {
    const Vec2 q = net.position(n);
    net.set_position(n, {q.x + drive.uniform(-8, 8), q.y + drive.uniform(-8, 8)});
  };

  int routed = 0, unrouted = 0, weight_moves = 0, restores = 0, batches = 0;
  for (int step = 0; step < 700; ++step) {
    const double u = drive.uniform();
    const NodeId id = pick();
    const Vec2 p = net.position(id);
    const std::uint64_t epoch = net.topology_epoch();
    if (u < 0.80) {
      net.set_position(id, {p.x + drive.uniform(-8, 8), p.y + drive.uniform(-8, 8)});
      if (net.node_up(id) && net.topology_epoch() == epoch) ++weight_moves;
    } else if (u < 0.88) {
      net.set_position(id, {drive.uniform(0, 700), drive.uniform(0, 700)});
    } else if (u < 0.92) {
      net.set_gateway(id, !net.is_gateway(id));
    } else if (u < 0.96) {
      net.set_node_up(id, !net.node_up(id));
    } else if (u < 0.98) {
      add_random_node();
    } else {
      if (!snap) {
        snap = sim.checkpoint().save();
      } else {
        sim.checkpoint().restore(*snap);
        oracle.clear();
        snap.reset();
        ++restores;
      }
    }
    const double batch = drive.uniform();
    if (batch < 0.18) {
      ++batches;
      const NodeId b = pick();
      if (batch < 0.06) {
        // One node moving twice.
        nudge(b);
        nudge(b);
      } else if (batch < 0.12) {
        // A weight-only drift, then a flip elsewhere.
        nudge(b);
        net.set_position(pick(), {drive.uniform(0, 700), drive.uniform(0, 700)});
      } else {
        // A move, then the mover goes down (or, if down, back up).
        nudge(b);
        net.set_node_up(b, !net.node_up(b));
      }
    }
    for (int q = 0; q < 4; ++q) {
      // One id past the end now and then: unknown ids answer "no route".
      // Half the lookups come from four hub sources, so their trees are
      // resumed across many weight-only moves.
      const NodeId src = drive.uniform() < 0.5 ? static_cast<NodeId>(drive.uniform_int(0, 3))
                                               : pick();
      const NodeId dst = pick(1);
      const std::vector<NodeId> want = oracle.path(src, dst);
      senders.clear();
      delivered_to = kNobody;
      const bool sent = net.route_and_send(src, dst, Message{.kind = "r", .size_bytes = 16});
      sim.run();
      ASSERT_EQ(sent, !want.empty()) << "step " << step << " " << src << "->" << dst;
      if (!sent) {
        ++unrouted;
        continue;
      }
      ++routed;
      std::vector<NodeId> got = senders;
      got.push_back(dst);  // the receiver; src == dst sends no frame
      ASSERT_EQ(got, want) << "step " << step << " " << src << "->" << dst;
      EXPECT_EQ(delivered_to, dst);
    }
  }
  // Every side of the contract was exercised.
  EXPECT_GT(routed, 300);
  EXPECT_GT(unrouted, 200);
  EXPECT_GT(weight_moves, 250);
  EXPECT_GE(restores, 3);
  EXPECT_GT(batches, 80);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteCacheOracle, ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

TEST(DestinationTrees, EqualPathsFallBackToTheSourceTree) {
  // A ladder of two disjoint, exactly equal paths, 0-1-4-5 and 0-2-3-5,
  // each hop 100 m on an axis (every distance and sum is exact). A wall
  // over x = 100 blocks the rung 2-4. Forward Dijkstra from 0 settles 2
  // before 4 and so reaches 5 via 3; the tree rooted at 5 settles 1 before
  // 2 and so leads from 0 via 1. Only the margin test keeps the shared
  // tree from answering 0 -> 5 with the wrong one of the two.
  Simulator sim;
  ChannelModel ch(2.0, 0.0);
  ch.add_building({{90, 40}, {110, 60}});
  Network net(sim, ch, Rng(3));
  const RadioProfile radio{.range_m = 120, .base_loss = 0.0};
  for (const Vec2 p : {Vec2{0, 0}, Vec2{0, 100}, Vec2{100, 0}, Vec2{200, 0}, Vec2{100, 100},
                       Vec2{200, 100}}) {
    net.add_node(p, radio);
  }
  std::set<std::pair<NodeId, NodeId>> edges;
  for (const Edge& e : net.connectivity().edges()) edges.insert({e.a, e.b});
  ASSERT_EQ(edges, (std::set<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}, {1, 4}, {2, 3},
                                                       {3, 5}, {4, 5}}));
  std::vector<NodeId> senders;
  net.set_transmit_hook([&senders](NodeId n, std::size_t) { senders.push_back(n); });
  iobt::testing::EagerRouteCache oracle(net);
  auto hops = [&](NodeId src, NodeId dst) {
    senders.clear();
    EXPECT_TRUE(net.route_and_send(src, dst, Message{.kind = "r", .size_bytes = 8}));
    sim.run();
    senders.push_back(dst);
    return senders;
  };

  EXPECT_EQ(hops(0, 5), (std::vector<NodeId>{0, 2, 3, 5}));
  const Network::RouteStats& st = net.route_stats();
  EXPECT_EQ(st.lookups, 1u);
  EXPECT_EQ(st.dest_tree_builds, 1u);
  EXPECT_EQ(st.margin_fallbacks, 1u);
  EXPECT_EQ(st.dest_answers, 0u);
  EXPECT_EQ(st.source_tree_builds, 1u);

  for (NodeId src = 0; src < 6; ++src) {
    for (NodeId dst = 0; dst < 6; ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(hops(src, dst), oracle.path(src, dst)) << src << "->" << dst;
    }
  }
  // The ladder is a 6-cycle: each node ties with its antipode. A source
  // that reaches its antipode through a destination tree falls back there
  // (once: later lookups resume its own tree); one that fanned out to a
  // destination with no tree first has its own tree already. Every other
  // pair has one shortest path and reads the destination's tree, until
  // its source has a tree of its own.
  EXPECT_EQ(st.lookups, 31u);
  EXPECT_EQ(st.margin_fallbacks, 4u);
  EXPECT_EQ(st.source_tree_builds, 6u);
  EXPECT_GT(st.dest_answers, 0u);
}

TEST(DestinationTrees, SourcesShareTheCollectorsTree) {
  // A comb-shaped collection tree: a spine of 9 nodes 100 m apart, and a
  // tooth of three nodes up from every other spine node. Teeth are 200 m
  // apart and 141 m from the spine nodes beside their root, out of range,
  // so every path is unique and every source reads collector 0's tree,
  // grown once and resumed.
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(4));
  const RadioProfile radio{.range_m = 120, .base_loss = 0.0};
  for (int i = 0; i < 9; ++i) net.add_node({100.0 * i, 0.0}, radio);
  for (int j = 0; j < 5; ++j) {
    for (int k = 1; k <= 3; ++k) net.add_node({200.0 * j, 100.0 * k}, radio);
  }
  std::vector<NodeId> senders;
  net.set_transmit_hook([&senders](NodeId n, std::size_t) { senders.push_back(n); });
  iobt::testing::EagerRouteCache oracle(net);
  constexpr NodeId kCollector = 0;
  auto check_all = [&] {
    for (NodeId src = 1; src < net.node_count(); ++src) {
      senders.clear();
      ASSERT_TRUE(net.route_and_send(src, kCollector, Message{.kind = "r", .size_bytes = 8}));
      sim.run();
      senders.push_back(kCollector);
      ASSERT_EQ(senders, oracle.path(src, kCollector)) << src;
    }
  };
  check_all();
  const Network::RouteStats& st = net.route_stats();
  EXPECT_EQ(st.lookups, 23u);
  EXPECT_EQ(st.dest_answers, 23u);
  EXPECT_EQ(st.dest_tree_builds, 1u);
  EXPECT_EQ(st.source_tree_builds, 0u);
  EXPECT_EQ(st.margin_fallbacks, 0u);
  EXPECT_EQ(st.nodes_settled, 24u);  // each node once, for 23 answers

  // A weight-only drift: the last tooth's tip moves 5 m out, keeping its
  // one link. Every source registered before it must answer on the
  // weights of its first lookup, so each grows its own tree on the frozen
  // copy the sync gave it.
  const std::uint64_t epoch = net.topology_epoch();
  net.set_position(23, {800.0, 305.0});
  ASSERT_EQ(net.topology_epoch(), epoch);
  check_all();
  EXPECT_EQ(st.dest_tree_builds, 1u);
  EXPECT_EQ(st.source_tree_builds, 23u);

  // A new epoch registers every source again, at the current weights.
  net.set_node_up(23, false);
  net.set_node_up(23, true);
  check_all();
  EXPECT_EQ(st.lookups, 69u);
  EXPECT_EQ(st.dest_answers, 46u);
  EXPECT_EQ(st.dest_tree_builds, 2u);
  EXPECT_EQ(st.source_tree_builds, 23u);

  // A source that fans out starts one destination tree, then its own:
  // source 5 read the collector's tree (source 1 started it), starts
  // 2's, and resumes its own for 3 and 4.
  for (NodeId dst = 2; dst <= 4; ++dst) {
    senders.clear();
    ASSERT_TRUE(net.route_and_send(5, dst, Message{.kind = "r", .size_bytes = 8}));
    sim.run();
    senders.push_back(dst);
    ASSERT_EQ(senders, oracle.path(5, dst)) << dst;
  }
  EXPECT_EQ(st.dest_tree_builds, 3u);
  EXPECT_EQ(st.source_tree_builds, 24u);
  EXPECT_EQ(st.dest_answers, 47u);
}

TEST_F(NetFixture, EpochOnlyBumpsWhenAnInRangeRelationshipChanges) {
  const NodeId a = add({0, 0});  // range 300
  const NodeId b = add({200, 0});
  const NodeId c = add({1500, 1500});
  (void)a;
  const std::uint64_t e0 = net.topology_epoch();

  // c is isolated: moving it around far from everyone changes nothing.
  net.set_position(c, {1400, 1500});
  EXPECT_EQ(net.topology_epoch(), e0);
  // b slides closer to a but gains/loses no link: still no bump.
  net.set_position(b, {100, 0});
  EXPECT_EQ(net.topology_epoch(), e0);
  // b leaves a's range: bump.
  net.set_position(b, {700, 0});
  EXPECT_GT(net.topology_epoch(), e0);

  const std::uint64_t e1 = net.topology_epoch();
  net.set_node_up(c, false);
  EXPECT_GT(net.topology_epoch(), e1);
  const std::uint64_t e2 = net.topology_epoch();
  add({900, 900});
  EXPECT_GT(net.topology_epoch(), e2);
}

TEST_F(NetFixture, LongRangeJoinRebuildsGridAndKeepsCoverage) {
  const NodeId a = add({0, 0});  // range 300 sets the initial cell size
  // A peer 290 m away is a receiver only if the cells cover a's radio.
  add({-290, 0});
  const NodeId b = add({900, 0});  // 300 m radio, isolated for now
  EXPECT_EQ(net.broadcast(a, Message{.kind = "hello", .size_bytes = 8}), 1u);
  // A 1200 m radio joining must rebuild the grid (cells must cover the new
  // maximum range) and re-index the existing nodes. Links stay bounded by
  // the *smaller* radio on each pair, so big reaches only a for now.
  const NodeId big = add({100, 0}, 1200.0);
  int got = 0;
  for (const NodeId id : {a, b, big}) {
    net.set_handler(id, [&](const Message&) { ++got; });
  }
  EXPECT_EQ(net.broadcast(big, Message{.kind = "hello", .size_bytes = 8}), 1u);
  // A long-range peer lands in the rebuilt grid: its 830 m link to big is
  // visible, plus the short hop to b.
  const NodeId big2 = add({930, 0}, 1200.0);
  EXPECT_EQ(net.broadcast(big2, Message{.kind = "hello", .size_bytes = 8}), 2u);
  sim.run();
  EXPECT_EQ(got, 3);

  // The store built across the grid rebuild still agrees with the oracle.
  expect_identical_topologies(net.connectivity(), brute_connectivity(net),
                              "store vs oracle");
}

TEST_P(NetDeterminism, BroadcastDigestsIdenticalGridVsBrute) {
  // Lossy mobile scenario driven end-to-end from one seed. Every
  // observable — the RNG draw order, delivery counts, the full metrics
  // digest — must match the golden values recorded from the brute-force
  // enumeration path before it was removed (the grid path agreed then).
  struct Golden {
    std::uint64_t seed, delivered, digest;
  };
  static constexpr Golden kGolden[] = {
      {1, 4307, 0xa145441b589f758eULL},
      {7, 4361, 0xc6a95ba70eeee037ULL},
      {1234, 4225, 0xa5261550cdbcb6bdULL},
  };
  const auto run_once = [&] {
    Simulator sim;
    Network net(sim, ChannelModel(), Rng(GetParam()));
    Rng layout(GetParam() ^ 0x5EED);
    std::vector<NodeId> ids;
    for (int i = 0; i < 80; ++i) {
      ids.push_back(net.add_node({layout.uniform(0, 1200), layout.uniform(0, 1200)},
                                 {.range_m = 250, .base_loss = 0.15}));
    }
    std::uint64_t got = 0;
    for (auto id : ids) net.set_handler(id, [&](const Message&) { ++got; });
    for (int round = 0; round < 8; ++round) {
      for (auto id : ids) {
        net.set_position(id, {layout.uniform(0, 1200), layout.uniform(0, 1200)});
      }
      for (auto id : ids) net.broadcast(id, Message{.kind = "hello", .size_bytes = 24});
      sim.run();
    }
    return std::pair<std::uint64_t, std::uint64_t>{got, net.metrics().digest()};
  };
  const auto golden = std::find_if(std::begin(kGolden), std::end(kGolden),
                                   [&](const Golden& g) { return g.seed == GetParam(); });
  ASSERT_NE(golden, std::end(kGolden)) << "no golden for seed " << GetParam();
  const auto got = run_once();
  EXPECT_EQ(got.first, golden->delivered);
  EXPECT_EQ(got.second, golden->digest);
  EXPECT_EQ(run_once(), got);
}

// ------------------------------------------------------- Layered network ----

TEST(NetworkLayers, CrossLayerTrafficRequiresTwoGateways) {
  Simulator sim;
  Network net(sim, ChannelModel(), Rng(1));
  const NodeId g = net.add_node({0, 0}, {.base_loss = 0.0}, kLayerGround);
  const NodeId a = net.add_node({50, 0}, {.base_loss = 0.0}, kLayerAerial);
  EXPECT_EQ(net.layer(g), kLayerGround);
  EXPECT_EQ(net.layer(a), kLayerAerial);
  // In radio range but in different layers: no link, no traffic.
  EXPECT_FALSE(net.send(g, a, Message{.kind = "x", .size_bytes = 8}));
  EXPECT_EQ(net.broadcast(g, Message{.kind = "x", .size_bytes = 8}), 0u);
  // The addressed send is a counted drop; broadcast skips non-linked
  // candidates silently, exactly like out-of-range ones.
  EXPECT_EQ(net.frames_dropped(), 1u);
  EXPECT_FALSE(net.route_and_send(g, a, Message{.kind = "x", .size_bytes = 8}));
  // One gateway is not enough — a bridge needs both ends.
  net.set_gateway(g, true);
  EXPECT_FALSE(net.send(g, a, Message{.kind = "x", .size_bytes = 8}));
  // Both gateways: the inter-layer edge exists and traffic flows.
  net.set_gateway(a, true);
  EXPECT_TRUE(net.is_gateway(g));
  EXPECT_TRUE(net.route_and_send(g, a, Message{.kind = "x", .size_bytes = 8}));
  EXPECT_TRUE(net.send(g, a, Message{.kind = "x", .size_bytes = 8}));
}

TEST(NetworkLayers, GatewaysBridgeMultiHopRoutes) {
  Simulator sim;
  // Lossless channel: this test is about reachability, not loss draws.
  Network net(sim, ChannelModel(2.0, 0.0), Rng(2));
  // Ground chain g0-g1, aerial chain a0-a1, bridged at g1<->a0.
  const NodeId g0 = net.add_node({0, 0}, {.range_m = 150, .base_loss = 0.0}, kLayerGround);
  const NodeId g1 = net.add_node({100, 0}, {.range_m = 150, .base_loss = 0.0}, kLayerGround);
  const NodeId a0 = net.add_node({200, 0}, {.range_m = 150, .base_loss = 0.0}, kLayerAerial);
  const NodeId a1 = net.add_node({300, 0}, {.range_m = 150, .base_loss = 0.0}, kLayerAerial);
  EXPECT_FALSE(net.route_and_send(g0, a1, Message{.kind = "alert", .size_bytes = 16}));
  net.set_gateway(g1, true);
  net.set_gateway(a0, true);
  bool got = false;
  net.set_handler(a1, [&](const Message&) { got = true; });
  EXPECT_TRUE(net.route_and_send(g0, a1, Message{.kind = "alert", .size_bytes = 16}));
  sim.run();
  EXPECT_TRUE(got);
  // The only cross-layer edge is the gateway pair.
  const Topology t = net.connectivity();
  EXPECT_TRUE(t.has_edge(g1, a0));
  EXPECT_FALSE(t.has_edge(g1, a1));
  EXPECT_FALSE(t.has_edge(g0, a0));
}

TEST(NetworkLayers, LayerBlockedDropsAreCounted) {
  Simulator sim;
  Network net(sim, ChannelModel(), Rng(3));
  const NodeId g = net.add_node({0, 0}, {}, kLayerGround);
  const NodeId c = net.add_node({10, 0}, {}, kLayerCommand);
  EXPECT_FALSE(net.send(g, c, Message{.kind = "x", .size_bytes = 8}));
  EXPECT_DOUBLE_EQ(net.metrics().counter("net.drop." + to_string(DropReason::kLayerBlocked)), 1.0);
}

TEST(NetworkLayers, GatewayFlipBumpsEpochOnlyWhenLinksChange) {
  Simulator sim;
  Network net(sim, ChannelModel(), Rng(4));
  const NodeId g = net.add_node({0, 0}, {}, kLayerGround);
  const NodeId g2 = net.add_node({30, 0}, {}, kLayerGround);
  const NodeId a = net.add_node({60, 0}, {}, kLayerAerial);
  (void)g2;
  const std::uint64_t e0 = net.topology_epoch();
  // No cross-layer gateway peer in range: the flip changes no link and
  // must not invalidate routes (flat networks rely on this staying free).
  net.set_gateway(g, true);
  EXPECT_EQ(net.topology_epoch(), e0);
  net.set_gateway(g, false);
  EXPECT_EQ(net.topology_epoch(), e0);
  // With a gateway peer across the layer boundary, both the promotion and
  // the demotion change an edge and must bump.
  net.set_gateway(a, true);
  EXPECT_EQ(net.topology_epoch(), e0);  // g is not a gateway yet: still no edge
  net.set_gateway(g, true);
  EXPECT_EQ(net.topology_epoch(), e0 + 1);
  net.set_gateway(g, false);
  EXPECT_EQ(net.topology_epoch(), e0 + 2);
}

TEST(NetworkLayers, DownGatewayRevivalReformsInterLayerLinks) {
  Simulator sim;
  Network net(sim, ChannelModel(), Rng(5));
  const NodeId g = net.add_node({0, 0}, {}, kLayerGround);
  const NodeId a = net.add_node({40, 0}, {}, kLayerAerial);
  net.set_gateway(g, true);
  net.set_gateway(a, true);
  EXPECT_TRUE(net.connectivity().has_edge(g, a));
  net.set_node_up(a, false);
  EXPECT_FALSE(net.connectivity().has_edge(g, a));
  net.set_node_up(a, true);
  EXPECT_TRUE(net.connectivity().has_edge(g, a));
}

TEST(NetworkLayers, GatewayChurnIsIdenticalAcrossAllMaintenanceModes) {
  // Random multi-layer churn (moves, liveness flips, gateway flips): each
  // round's patched store must equal the brute-force oracle, and the
  // trail of edge-list hashes, edge counts and epochs must fold to the
  // value all four former {grid, brute} x {incremental, rebuild} modes
  // produced.
  constexpr std::uint64_t kGoldenTrail = 0x4c4233c8b11725b8ULL;
  Simulator sim;
  Network net(sim, ChannelModel(), Rng(6));
  Rng drive(0xC0FFEE);
  std::vector<NodeId> ids;
  for (int i = 0; i < 60; ++i) {
    const auto layer = static_cast<LayerId>(i % 3);
    ids.push_back(net.add_node({drive.uniform(0, 700), drive.uniform(0, 700)},
                               {.range_m = 220}, layer));
    if (i % 4 == 0) net.set_gateway(ids.back(), true);
  }
  std::uint64_t trail = 0xcbf29ce484222325ULL;
  const auto fold = [&trail](std::uint64_t v) {
    trail ^= v;
    trail *= 0x100000001b3ULL;
  };
  for (int round = 0; round < 6; ++round) {
    for (const NodeId id : ids) {
      const double action = drive.uniform();
      if (action < 0.25) {
        net.set_gateway(id, !net.is_gateway(id));
      } else if (action < 0.4) {
        net.set_node_up(id, !net.node_up(id));
      } else {
        net.set_position(id, {drive.uniform(0, 700), drive.uniform(0, 700)});
      }
    }
    const Topology t = net.connectivity();
    expect_identical_topologies(t, brute_connectivity(net), "store vs oracle");
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Edge& e : t.edges()) {
      h ^= (static_cast<std::uint64_t>(e.a) << 32) | e.b;
      h *= 0x100000001b3ULL;
    }
    fold(h);
    fold(t.edge_count());
    fold(net.topology_epoch());
  }
  EXPECT_EQ(trail, kGoldenTrail);
}

/// Checks one layered network against brute force: the edge store must
/// equal the oracle, and a broadcast from every live node must reach
/// exactly the nodes a brute in-range filter over all ids selects, in
/// ascending id order. Needs a lossless channel and radios.
void expect_layered_net_matches_brute(Simulator& sim, Network& net, const std::string& tag) {
  expect_identical_topologies(net.connectivity(), brute_connectivity(net), tag.c_str());
  std::vector<NodeId> received;
  for (NodeId id = 0; id < net.node_count(); ++id) {
    net.set_handler(id, [&received, id](const Message&) { received.push_back(id); });
  }
  for (NodeId src = 0; src < net.node_count(); ++src) {
    if (!net.node_up(src)) continue;
    std::vector<NodeId> want;
    for (NodeId other = 0; other < net.node_count(); ++other) {
      if (other == src || !net.node_up(other)) continue;
      const bool allowed = net.layer(other) == net.layer(src) ||
                           (net.is_gateway(other) && net.is_gateway(src));
      if (allowed && net.channel().in_range(net.position(src), net.profile(src),
                                            net.position(other), net.profile(other))) {
        want.push_back(other);
      }
    }
    received.clear();
    EXPECT_EQ(net.broadcast(src, Message{.kind = "hello", .size_bytes = 8}), want.size())
        << tag << ": src " << src;
    sim.run();
    EXPECT_EQ(received, want) << tag << ": src " << src;
  }
  // The handlers point at this frame's `received`.
  for (NodeId id = 0; id < net.node_count(); ++id) net.set_handler(id, {});
}

TEST(NetworkLayers, PerLayerRangesAndGatewayGridResizingMatchBrute) {
  // Three layers with three radio ranges, so each layer grid has its own
  // cell size and the gateway grid grows as longer radios are promoted:
  // short radios first, then longer ones, then every gateway demoted.
  // Moves redraw positions over the whole area, crossing cells of every
  // grid.
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(12));
  Rng drive(0x1A7E5);
  constexpr double kRange[] = {150.0, 400.0, 900.0};
  constexpr double kSide = 1600.0;
  std::vector<NodeId> layer_nodes[3];
  for (int i = 0; i < 48; ++i) {
    const auto layer = static_cast<LayerId>(i % 3);
    layer_nodes[layer].push_back(
        net.add_node({drive.uniform(0, kSide), drive.uniform(0, kSide)},
                     {.range_m = kRange[layer], .base_loss = 0.0}, layer));
  }
  const auto churn = [&] {
    for (NodeId id = 0; id < net.node_count(); ++id) {
      const double action = drive.uniform();
      if (action < 0.1) {
        net.set_node_up(id, !net.node_up(id));
      } else if (action < 0.7) {
        net.set_position(id, {drive.uniform(0, kSide), drive.uniform(0, kSide)});
      }
    }
  };
  expect_layered_net_matches_brute(sim, net, "initial");
  for (const bool promote : {true, false}) {
    for (LayerId layer = 0; layer < 3; ++layer) {
      for (std::size_t k = 0; k < layer_nodes[layer].size(); k += 2) {
        net.set_gateway(layer_nodes[layer][k], promote);
      }
      const std::string tag = std::string(promote ? "promote " : "demote ") +
                              to_string(layer);
      expect_layered_net_matches_brute(sim, net, tag);
      for (int round = 0; round < 3; ++round) {
        churn();
        expect_layered_net_matches_brute(sim, net, tag + " churn");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(NetworkLayers, DownGatewayIsIndexedAtItsRangeOnRevival) {
  // Gateways promoted while down enter the gateway grid only when they
  // come back up, so the grid must grow to their range then. Here the
  // only gateway so far has a 150 m radio; an aerial and a command node,
  // 300 m apart and both longer-range, are promoted while down and
  // revived. Their bridge is found only if the grid covers 300 m.
  Simulator sim;
  Network net(sim, ChannelModel(2.0, 0.0), Rng(13));
  const NodeId g = net.add_node({0, 0}, {.range_m = 150, .base_loss = 0.0}, kLayerGround);
  net.add_node({100, 0}, {.range_m = 150, .base_loss = 0.0}, kLayerGround);
  const NodeId a = net.add_node({300, 0}, {.range_m = 400, .base_loss = 0.0}, kLayerAerial);
  const NodeId c = net.add_node({600, 0}, {.range_m = 900, .base_loss = 0.0}, kLayerCommand);
  net.set_gateway(g, true);
  net.set_node_up(a, false);
  net.set_node_up(c, false);
  net.set_gateway(c, true);
  net.set_gateway(a, true);
  expect_layered_net_matches_brute(sim, net, "promoted while down");
  net.set_node_up(c, true);
  expect_layered_net_matches_brute(sim, net, "command revived");
  net.set_node_up(a, true);
  expect_layered_net_matches_brute(sim, net, "aerial revived");
  EXPECT_TRUE(net.connectivity().has_edge(a, c));
  // Moves across cells keep the bridge exact.
  for (const Vec2 p : {Vec2{900, 0}, Vec2{1000, 350}, Vec2{250, 1000}}) {
    net.set_position(a, p);
    expect_layered_net_matches_brute(sim, net, "aerial moved");
  }
}

}  // namespace
}  // namespace iobt::net
