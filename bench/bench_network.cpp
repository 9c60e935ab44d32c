// N1/N2 — Wireless-substrate scaling harness.
//
// §I's scale claim ("1,000s to 10,000s of things") dies first in the
// network layer: a one-hop broadcast that scans every endpoint and a
// topology refresh that re-scans the world are both O(n) per operation,
// which is the difference between a 16k-node sweep finishing in seconds or
// in hours. net::Network answers both from a spatial grid and a
// persistent edge store patched per move. This bench ladders n over
// {1k..128k} at CONSTANT radio density (the area grows with n, so expected
// degree stays ~10 and the ladder measures scaling, not density drift) and
// times the production path:
//
//   * broadcast fan-out: 1024 one-hop broadcasts, read from the edge
//     store; the median of kBroadcastRuns timed loops;
//   * connectivity MAINTENANCE under churn: per round, ~1% of nodes move
//     and the current topology is re-read via topology_view(), which is
//     O(1) because every move patched the edge store.
//
// Each rung also reports bytes/node from Network::memory_footprint() — the
// structure-of-arrays slab accounting that must stay flat as n grows — and
// the spatial grids' share of it (grid_B).
//
// What the numbers cannot show — that the grid and the patched store
// change nothing BUT wall time — is checked against the O(N^2)
// brute_connectivity oracle (tests/net_oracle.h): the store's edge set,
// neighbor order and weights must equal the oracle's before and after the
// churn loop, on every rung up to the 16k brute ceiling. A mobile
// routed-traffic scenario, whose walkers move as one Network::move_batch
// per tick, is swept over seeds on the ParallelRunner: its store must
// equal the oracle after the last tick, and its metric digests must be
// bit-identical on 1 worker and on the pool. Any mismatch exits nonzero.
// Emits BENCH_network.json.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "net/network.h"
#include "net/topology.h"
#include "net_oracle.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "things/mobility.h"

namespace {

using namespace iobt;

constexpr double kRangeM = 150.0;
constexpr double kTargetDegree = 10.0;
constexpr int kBroadcasts = 1024;
/// The broadcast loop takes a few ms, so one run is mostly noise: each
/// rung reports the median of this many.
constexpr int kBroadcastRuns = 9;
constexpr int kChurnRounds = 20;
constexpr std::size_t kBruteCeiling = 16000;
constexpr std::size_t kMobilityNodes = 2000;
constexpr std::size_t kMobilitySeeds = 6;
constexpr int kMobilityTicks = 20;
constexpr int kRouteSources = 4;
constexpr int kRouteDests = 4;

/// Area side that keeps expected radio degree at kTargetDegree for n
/// nodes: density = degree / (pi r^2), side = sqrt(n / density).
double side_for(std::size_t n) {
  const double density = kTargetDegree / (3.14159265358979 * kRangeM * kRangeM);
  return std::sqrt(static_cast<double>(n) / density);
}

/// One network instance: n nodes uniform in a density-normalized square.
struct Substrate {
  sim::Simulator sim;
  net::Network net;
  std::size_t n;

  Substrate(std::size_t nodes, std::uint64_t seed)
      : net(sim, net::ChannelModel(), sim::Rng(seed ^ 0xBADC0DEULL)), n(nodes) {
    sim::Rng rng(seed);
    const double side = side_for(n);
    net::RadioProfile radio;
    radio.range_m = kRangeM;
    for (std::size_t i = 0; i < n; ++i) {
      net.add_node({rng.uniform(0, side), rng.uniform(0, side)}, radio);
    }
  }
};

net::Message ping() {
  net::Message m;
  m.kind = "bench.ping";
  m.size_bytes = 32;
  return m;
}

/// Times the broadcast issue loop only (candidate enumeration + frame
/// scheduling — the part the grid accelerates); the delivery events are
/// drained untimed afterwards.
double time_broadcasts(Substrate& s) {
  bench::WallTimer t;
  for (int i = 0; i < kBroadcasts; ++i) {
    s.net.broadcast(static_cast<net::NodeId>((static_cast<std::size_t>(i) * 7919) % s.n),
                    ping());
  }
  const double ms = t.ms();
  s.sim.run();
  return ms;
}

/// The churn loop the edge store exists for: each round moves ~1% of the
/// nodes, then re-reads the current topology (a route planner or analytics
/// pass would do exactly this).
double time_maintenance(Substrate& s, std::uint64_t seed, std::size_t* edges) {
  sim::Rng rng(seed ^ 0xC0FFEEULL);
  const double side = side_for(s.n);
  const std::size_t movers = s.n < 100 ? 1 : s.n / 100;
  bench::WallTimer t;
  for (int round = 0; round < kChurnRounds; ++round) {
    for (std::size_t m = 0; m < movers; ++m) {
      const auto id = static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.n) - 1));
      s.net.set_position(id, {rng.uniform(0, side), rng.uniform(0, side)});
    }
    *edges = s.net.topology_view().edge_count();
  }
  return t.ms();
}

/// Edge lists equal field by field. Topology::edges() walks adjacency
/// order, so a neighbor-order difference shows up here too.
bool same_edges(const net::Topology& a, const net::Topology& b) {
  const auto ea = a.edges();
  const auto eb = b.edges();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].a != eb[i].a || ea[i].b != eb[i].b || ea[i].weight != eb[i].weight)
      return false;
  }
  return true;
}

struct Rung {
  std::size_t n = 0;
  bool brute_checked = false;  ///< oracle checks run only up to kBruteCeiling
  double bcast_ms = 0;
  double maint_ms = 0;
  std::size_t edges = 0;
  std::size_t mem_bytes_per_node = 0;
  std::size_t grid_bytes_per_node = 0;
  bool identical = true;       ///< store == oracle before churn
  bool incr_identical = true;  ///< store == oracle after churn
};

Rung run_rung(std::size_t n) {
  Rung r;
  r.n = n;
  r.brute_checked = n <= kBruteCeiling;
  Substrate s(n, /*seed=*/7);

  // One untimed pass first: first-touch page faults and allocator growth
  // land in it.
  time_broadcasts(s);
  std::vector<double> bcast(kBroadcastRuns);
  for (double& ms : bcast) ms = time_broadcasts(s);
  std::nth_element(bcast.begin(), bcast.begin() + kBroadcastRuns / 2, bcast.end());
  r.bcast_ms = bcast[kBroadcastRuns / 2];
  if (r.brute_checked) {
    r.identical = same_edges(s.net.topology_view(), iobt::testing::brute_connectivity(s.net));
  }
  r.maint_ms = time_maintenance(s, /*seed=*/7, &r.edges);
  if (r.brute_checked) {
    r.incr_identical =
        same_edges(s.net.topology_view(), iobt::testing::brute_connectivity(s.net));
  }

  const net::Network::MemoryFootprint mem = s.net.memory_footprint();
  r.mem_bytes_per_node = mem.total() / (n == 0 ? 1 : n);
  r.grid_bytes_per_node = mem.grid / (n == 0 ? 1 : n);
  return r;
}

// --- Mobile routed-traffic scenario (ParallelRunner seed sweep) ----------

struct MobilityOutcome {
  std::uint64_t digest = 0;
  double route_ms = 0.0;  // cumulative route_and_send issue time
  std::uint64_t routed = 0;
  bool store_identical = false;  ///< store == oracle after the last tick
};

MobilityOutcome mobility_scenario(std::uint64_t seed) {
  sim::Simulator sim;
  net::Network net(sim, net::ChannelModel(), sim::Rng(seed ^ 0x5EEDULL));
  sim::Rng rng(seed);
  const double side = side_for(kMobilityNodes);
  const sim::Rect area{{0, 0}, {side, side}};
  net::RadioProfile radio;
  radio.range_m = kRangeM;
  std::vector<things::RandomWaypoint> walkers;
  walkers.reserve(kMobilityNodes);
  for (std::size_t i = 0; i < kMobilityNodes; ++i) {
    net.add_node({rng.uniform(0, side), rng.uniform(0, side)}, radio);
    walkers.emplace_back(area, /*speed_mps=*/15.0, /*pause_s=*/0.0,
                         rng.child(0x30B0ULL + i));
  }

  MobilityOutcome out;
  std::vector<net::Network::Move> moves(kMobilityNodes);
  for (int tick = 0; tick < kMobilityTicks; ++tick) {
    for (std::size_t i = 0; i < kMobilityNodes; ++i) {
      const auto id = static_cast<net::NodeId>(i);
      moves[i] = {id, walkers[i].step(net.position(id), 1.0)};
    }
    net.move_batch(moves);
    bench::WallTimer t;
    for (int s = 0; s < kRouteSources; ++s) {
      const auto src = static_cast<net::NodeId>((static_cast<std::size_t>(s) * 271 + 13) %
                                                kMobilityNodes);
      for (int d = 0; d < kRouteDests; ++d) {
        const auto dst = static_cast<net::NodeId>(
            (static_cast<std::size_t>(d) * 733 + 512) % kMobilityNodes);
        if (dst == src) continue;
        if (net.route_and_send(src, dst, ping())) ++out.routed;
      }
    }
    out.route_ms += t.ms();
    sim.run();
  }
  out.digest = net.metrics().digest();
  out.store_identical = same_edges(net.topology_view(), iobt::testing::brute_connectivity(net));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::parse_args(argc, argv);
  bench::header("N1/N2: wireless substrate scaling (grid + incremental maintenance)",
                "100,000s of things need geometric queries that do not touch "
                "every endpoint and topology upkeep that does not re-scan the "
                "world; both must change wall time only");

  run_rung(500);  // warmup: heap growth + code paging, result discarded

  const std::vector<std::size_t> ladder = {1000, 2000, 4000, 8000, 16000,
                                           32000, 64000, 128000};
  std::vector<Rung> rungs;
  bench::row("%-8s %-12s %-12s %-8s %-8s %-8s %-8s %-8s", "n", "bcast_ms", "maint_ms",
             "edges", "B/node", "grid_B", "pre=", "post=");
  bool identical = true;
  for (const std::size_t n : ladder) {
    rungs.push_back(run_rung(n));
    const Rung& r = rungs.back();
    identical = identical && r.identical && r.incr_identical;
    const auto flag = [&r](bool ok) { return r.brute_checked ? (ok ? "yes" : "NO") : "skip"; };
    bench::row("%-8zu %-12.2f %-12.2f %-8zu %-8zu %-8zu %-8s %-8s", r.n, r.bcast_ms,
               r.maint_ms, r.edges, r.mem_bytes_per_node, r.grid_bytes_per_node,
               flag(r.identical), flag(r.incr_identical));
  }

  // Mobile routed traffic: per-seed digests must not depend on the worker
  // count.
  const auto seeds = sim::ParallelRunner::seed_range(100, kMobilitySeeds);
  const std::function<MobilityOutcome(sim::ReplicationContext&)> body =
      [](sim::ReplicationContext& ctx) { return mobility_scenario(ctx.seed); };
  const auto serial = sim::ParallelRunner(1).run<MobilityOutcome>(seeds, body);
  const auto pool =
      sim::ParallelRunner(bench::bench_workers()).run<MobilityOutcome>(seeds, body);

  bool mobility_identical = serial.failures == 0 && pool.failures == 0;
  bool mobility_store_identical = mobility_identical;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    mobility_store_identical = mobility_store_identical &&
                               serial.replications[i].payload.store_identical &&
                               pool.replications[i].payload.store_identical;
    mobility_identical =
        mobility_identical &&
        serial.replications[i].payload.digest == pool.replications[i].payload.digest &&
        serial.replications[i].payload.routed == pool.replications[i].payload.routed;
  }
  identical = identical && mobility_identical && mobility_store_identical;

  const auto route = serial.stats([](const MobilityOutcome& o) { return o.route_ms; });
  bench::row("");
  bench::row("mobility (n=%zu, %d ticks, %zu seeds): routed-send issue time/replication",
             kMobilityNodes, kMobilityTicks, kMobilitySeeds);
  bench::row("  %s ms   digests %s   store %s", bench::pm(route, 2).c_str(),
             mobility_identical ? "identical (1 == pool workers)" : "MISMATCH",
             mobility_store_identical ? "== oracle" : "DIVERGED FROM ORACLE");

  bench::write_artifact("BENCH_network.json", [&](trace::JsonWriter& w) {
    w.key("range_m").number(kRangeM, 1).key("target_degree").number(kTargetDegree, 1);
    w.key("broadcasts").integer(kBroadcasts).key("churn_rounds").integer(kChurnRounds);
    w.key("brute_ceiling").integer(kBruteCeiling);
    w.key("ladder").begin_array();
    for (const Rung& r : rungs) {
      w.begin_object().key("n").integer(r.n);
      w.key("brute_checked").boolean(r.brute_checked);
      w.key("broadcast_ms").number(r.bcast_ms, 3);
      w.key("maintenance_ms").number(r.maint_ms, 3);
      w.key("mem_bytes_per_node").integer(r.mem_bytes_per_node);
      w.key("grid_bytes_per_node").integer(r.grid_bytes_per_node);
      w.key("edges").integer(r.edges);
      w.key("identical").boolean(r.identical);
      w.key("incremental_identical").boolean(r.incr_identical).end_object();
    }
    w.end_array();
    w.key("mobility").begin_object().key("n").integer(kMobilityNodes);
    w.key("ticks").integer(kMobilityTicks).key("seeds").integer(kMobilitySeeds);
    w.key("route_ms_mean").number(route.mean(), 3);
    w.key("identical").boolean(mobility_identical);
    w.key("store_identical").boolean(mobility_store_identical).end_object();
    w.key("identical").boolean(identical);
  });

  if (!identical) {
    bench::row("DETERMINISM VIOLATION: edge store disagrees with the oracle, or "
               "digests depend on the worker count");
    return 1;
  }
  return 0;
}
