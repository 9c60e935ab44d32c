// The repo benchmark driver: three workloads driven through the iobt public
// API from one process, each checked against committed golden digests.
//
//   mission   the Fig. 1 loop through core::Runtime: populate, 300 s of
//             discovery + characterization, launch_mission (synthesis), then
//             a Sybil infiltration, a camera blackout and a kinetic strike to
//             1300 s. The only workload with multi-hop routing, discovery and
//             synthesis.
//   epidemic  the dissemination matrix's 40 waypoint cells (layered gossip
//             under attack campaigns), run serially: broadcast only, with
//             link writes from mobility instead of route reads.
//   whatif    an open-loop what-if query stream into serve::CampaignService
//             with the durable snapshot tier on: mostly-hot prefixes (restore
//             only) beside a steady share of cold ones (simulate, save, write
//             to disk), over a prefix working set larger than the cache.
//
// Usage:
//   perfbench <workload> --seed N --seconds S --trace 0|1 --golden DIR
//             --scratch DIR [--corrupt-golden]
//   perfbench golden <workload> [--variants A:B]
//
// A run repeats its workload for --seconds of host time, prints a metric
// table, and ends with one JSON line (see harness.h). --trace 0 reports the
// end-to-end metrics with profiling off; --trace 1 is a separate run that
// turns the kernel's per-tag profiler on for the stacks this driver owns and
// reports the per-layer breakdown. `golden` prints the golden digest lines
// for perfbench/golden/<workload>.txt. Inputs come from the seed: the seed
// picks one of the committed golden variants (seed mod variant count), and
// for whatif it also drives the query stream.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "dissem/scenario.h"
#include "harness.h"
#include "serve/serve.h"
#include "sim/hash.h"
#include "sim/rng.h"

namespace {

using namespace iobt;
using perfbench::median;
using perfbench::MetricSet;
using perfbench::OpLedger;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Golden variants generated per workload; a run's variant is its seed
/// modulo the number of variants its golden file holds.
constexpr std::size_t kVariants = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_dir = "perfbench/golden";
  std::string scratch_dir = ".bench_build/scratch";
  bool corrupt_golden = false;
};

// --------------------------------------------------------- layer profile ---

/// Maps a kernel event tag onto the layer it is reported under.
std::string layer_of(const std::string& tag) {
  const auto starts = [&tag](const char* p) { return tag.rfind(p, 0) == 0; };
  if (tag == "net.deliver") return "net.deliver";
  if (tag == "world.tick") return "world.tick";
  if (tag == "mission.sweep") return "mission.sweep";
  if (tag == "dissem.gossip") return "dissem.gossip";
  if (starts("disc.")) return "disc";
  if (starts("char.")) return "char";
  if (starts("adapt.") || starts("reflex.")) return "adapt";
  if (starts("attack.")) return "attack";
  return "other";
}

/// Per-layer busy time and counts accumulated from the kernel profiler
/// (Simulator::profile) of every stack a workload pass owns, plus the host
/// time spent inside the kernel's run calls. kernel_ms() is what the
/// handlers do not account for: dispatch, heap and timer work.
struct LayerProfile {
  double sim_wall_ms = 0.0;
  std::map<std::string, double> busy_ms;
  std::map<std::string, double> executed;
  double events = 0, scheduled = 0, cancelled = 0;
  double frames_sent = 0, frames_delivered = 0, drops = 0, epochs = 0;
  net::Network::MemoryFootprint mem;  ///< largest stack seen

  void add_sim(const sim::Simulator& s) {
    for (const sim::TagProfileRow& row : s.profile()) {
      const std::string layer = layer_of(row.tag);
      busy_ms[layer] += row.busy_ms;
      executed[layer] += static_cast<double>(row.executed);
      events += static_cast<double>(row.executed);
      scheduled += static_cast<double>(row.scheduled);
      cancelled += static_cast<double>(row.cancelled);
    }
  }
  void add_net(const net::Network& n) {
    frames_sent += n.metrics().counter("net.frames_sent");
    frames_delivered += n.metrics().counter("net.frames_delivered");
    drops += static_cast<double>(n.frames_dropped());
    epochs += static_cast<double>(n.topology_epoch());
    const auto m = n.memory_footprint();
    if (m.total() > mem.total()) mem = m;
  }
  double busy(const std::string& layer) const {
    auto it = busy_ms.find(layer);
    return it == busy_ms.end() ? 0.0 : it->second;
  }
  double busy_total() const {
    double t = 0.0;
    for (const auto& [layer, ms] : busy_ms) t += ms;
    return t;
  }
  double kernel_ms() const { return sim_wall_ms - busy_total(); }
};

/// Everything the per-layer table reports beyond the kernel profile. Layers
/// a workload does not exercise stay 0.
struct LayerExtras {
  double profile_overhead = 0.0;
  double launch_ms = 0.0;
  double build_ms = 0.0;
  double hit_rate = 0, prefix_sims = 0, batch_dedup = 0, evictions = 0;
  double disk_hits = 0, disk_stores = 0;
  double service_p50 = 0, service_p99 = 0, wait_p50 = 0, wait_p99 = 0;
  double batches = 0, batch_size_mean = 0, gen_lag_max = 0;
  double save_ms = 0, restore_ms = 0, encode_ms = 0, image_bytes = 0;
};

void add_layer_metrics(MetricSet& m, const LayerProfile& p, const LayerExtras& x) {
  m.add("sim.events", p.events, "count");
  m.add("sim.scheduled", p.scheduled, "count");
  m.add("sim.cancelled", p.cancelled, "count");
  m.add("sim.wall_ms", p.sim_wall_ms, "ms", "profiled host time inside the kernel's run calls");
  m.add("sim.kernel_ms", p.kernel_ms(), "ms", "sim.wall_ms minus every handler's busy_ms");
  m.add("sim.profile_overhead", x.profile_overhead, "ratio", "profiled wall / untraced wall");
  m.add("net.deliver_ms", p.busy("net.deliver"), "ms", "inclusive: includes receive handlers");
  m.add("net.deliver_events", [&] {
    auto it = p.executed.find("net.deliver");
    return it == p.executed.end() ? 0.0 : it->second;
  }(), "count");
  m.add("net.topology_epochs", p.epochs, "count");
  m.add("net.frames_sent", p.frames_sent, "count");
  m.add("net.frames_delivered", p.frames_delivered, "count");
  m.add("net.drops", p.drops, "count");
  m.add("net.delivery_ratio",
        p.frames_sent > 0 ? p.frames_delivered / p.frames_sent : 0.0, "ratio");
  m.add("net.memory_bytes", static_cast<double>(p.mem.total()), "bytes");
  m.add("net.route_cache_bytes", static_cast<double>(p.mem.route_cache), "bytes");
  m.add("net.node_slab_bytes", static_cast<double>(p.mem.node_slabs), "bytes");
  m.add("net.grid_bytes", static_cast<double>(p.mem.grid), "bytes");
  m.add("net.link_bytes", static_cast<double>(p.mem.links), "bytes");
  m.add("net.pending_bytes", static_cast<double>(p.mem.pending), "bytes");
  m.add("world.tick_ms", p.busy("world.tick"), "ms", "inclusive: includes link maintenance");
  m.add("world.ticks", [&] {
    auto it = p.executed.find("world.tick");
    return it == p.executed.end() ? 0.0 : it->second;
  }(), "count");
  m.add("disc.ms", p.busy("disc"), "ms");
  m.add("char.ms", p.busy("char"), "ms");
  m.add("mission.sweep_ms", p.busy("mission.sweep"), "ms");
  m.add("adapt.ms", p.busy("adapt"), "ms", "adapt.* and reflex.* tags");
  m.add("mission.launch_ms", x.launch_ms, "ms", "bench-timed launch_mission (synthesis)");
  m.add("attack.ms", p.busy("attack"), "ms");
  m.add("dissem.gossip_ms", p.busy("dissem.gossip"), "ms");
  m.add("dissem.build_ms", x.build_ms, "ms", "bench-timed DissemScenario construction");
  m.add("other.ms", p.busy("other"), "ms", "handlers of every other tag");
  m.add("serve.hit_rate", x.hit_rate, "ratio");
  m.add("serve.prefix_sims", x.prefix_sims, "count");
  m.add("serve.batch_dedup", x.batch_dedup, "count");
  m.add("serve.evictions", x.evictions, "count");
  m.add("serve.disk_hits", x.disk_hits, "count");
  m.add("serve.disk_stores", x.disk_stores, "count");
  m.add("serve.service_ms_p50", x.service_p50, "ms", "QueryResult::latency_ms");
  m.add("serve.service_ms_p99", x.service_p99, "ms");
  m.add("serve.wait_ms_p50", x.wait_p50, "ms", "arrival-to-answer minus service time");
  m.add("serve.wait_ms_p99", x.wait_p99, "ms");
  m.add("serve.batches", x.batches, "count");
  m.add("serve.batch_size_mean", x.batch_size_mean, "count");
  m.add("serve.gen_lag_ms_max", x.gen_lag_max, "ms", "how late the generator submitted");
  m.add("ckpt.save_ms", x.save_ms, "ms");
  m.add("ckpt.restore_ms", x.restore_ms, "ms");
  m.add("ckpt.encode_ms", x.encode_ms, "ms");
  m.add("ckpt.image_bytes", x.image_bytes, "bytes");
}

/// One untraced repetition of a workload's identical, deterministic work:
/// its set-up, its measured phase, the work it did, and the latency of each
/// of its operations in a fixed order.
struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double work = 0.0;  ///< what events_per_s counts
  std::vector<double> op_ms;
};

/// How p50_ms/p99_ms are drawn from the passes' per-operation latencies.
enum class Latencies {
  /// The percentile rule on each pass's own latency distribution, then the
  /// median across passes (perfbench::per_pass_median).
  kPerPassMedian,
  /// Each operation's fastest time across passes, then ranked across the
  /// operations: the cost profile of the operations themselves.
  kFastestPerOp,
};

/// The end-to-end block, from a run's passes. setup_s and wall_s are the
/// fastest across passes; see perfbench::fastest for why.
void add_end_to_end(MetricSet& m, const std::vector<Pass>& passes, Latencies rule,
                    const std::string& op_name, const std::string& work_name) {
  std::vector<double> setup, wall, work;
  std::vector<std::vector<double>> ops;
  for (const Pass& p : passes) {
    setup.push_back(p.setup_s);
    wall.push_back(p.wall_s);
    work.push_back(p.work);
    ops.push_back(p.op_ms);
  }
  const std::string of = " of " + std::to_string(passes.size()) + " passes";
  const double wall_s = perfbench::fastest(wall);
  m.add("setup_s", perfbench::fastest(setup), "s", "fastest" + of);
  m.add("wall_s", wall_s, "s", "fastest" + of);
  m.add("events_per_s", median(work) / wall_s, "1/s", work_name + " / wall_s");
  for (const auto& [name, wanted] : {std::pair{"p50_ms", 0.5}, std::pair{"p99_ms", 0.99}}) {
    const bool per_pass = rule == Latencies::kPerPassMedian;
    const perfbench::TailStat t =
        per_pass ? perfbench::per_pass_median(ops, wanted)
                 : perfbench::tail_quantile(perfbench::per_op_fastest(ops), wanted);
    const std::string how = per_pass ? "median" + of + ", each" : "each op's fastest" + of;
    char note[200];
    std::snprintf(note, sizeof note, "%s, %s: p%.4g of n=%zu (%zu beyond)%s", op_name.c_str(),
                  how.c_str(), 100.0 * t.percentile, t.samples, t.beyond,
                  t.resolved ? "" : " UNRESOLVED: too few samples, median shown");
    m.add(name, t.value, "ms", note);
  }
  m.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB", "VmHWM at the end of the workload");
  // error_rate is printed by main() beside the table: it is 0 on a correct
  // tree, and the result line carries it as failed / attempted.
}

// ------------------------------------------------------------- mission ----

struct MissionInputs {
  std::uint64_t runtime_seed;
  std::uint64_t sybil_seed;
  std::uint64_t strike_seed;
};

/// Draw j of the mission inputs: population seed 31415 + 1000 j, Sybil and
/// strike RNG seeds 9 + 2 j and 11 + 2 j. Draw 0 is bench_end_to_end's
/// "full" configuration.
MissionInputs mission_draw(std::size_t j) {
  return {31415 + 1000 * j, 9 + 2 * j, 11 + 2 * j};
}

/// The golden variants. Draws differ in cost by 2x (96 to 207 ms per
/// mission on a 4-vCPU Xeon VM), far more than their event counts (84k to
/// 144k) suggest, because Dijkstra and range checks dominate. These 16 are
/// the draws of 0..199 closest to the median draw in kernel events (110k)
/// and in three measured costs: the fastest of 8 missions (155 ms) and the
/// median and 90th-percentile kMissionAdvanceS advance (1.07 and 2.52 ms),
/// all within 8%. Seeds change the battlefield but not the amount or the
/// shape of the work.
constexpr std::size_t kMissionDraws[kVariants] = {
    0, 8, 25, 44, 50, 62, 79, 80, 82, 88, 99, 138, 144, 161, 176, 181};

MissionInputs mission_inputs(std::size_t variant) {
  return mission_draw(kMissionDraws[variant]);
}

/// Virtual seconds per timed kernel advance of the mission (the status rows
/// are still polled every 25 s).
constexpr double kMissionAdvanceS = 12.5;

struct MissionRun {
  double setup_ms = 0.0;
  double phase_ms = 0.0;   ///< measured phase: everything after start()
  double launch_ms = 0.0;
  /// Host ms of each kMissionAdvanceS kernel advance, in virtual-time order:
  /// how long a faster-than-real-time mission keeps its user waiting for
  /// the next stretch of battlefield time.
  std::vector<double> advance_ms;
  std::uint64_t events = 0;
  bool launched = false;
  std::string status_digest, metrics_digest;
  LayerProfile layers;
};

MissionRun run_mission(std::size_t variant, bool profiling) {
  const MissionInputs in = mission_inputs(variant);
  MissionRun out;
  const auto t0 = Clock::now();
  core::RuntimeConfig rcfg;
  rcfg.area = {{0, 0}, {1400, 1000}};
  rcfg.seed = in.runtime_seed;
  rcfg.channel_max_edge_loss = 0.1;
  auto rt = std::make_unique<core::Runtime>(rcfg);
  rt->simulator().set_profiling(profiling);
  things::PopulationConfig pop;
  pop.sensor_motes = 45;
  pop.drones = 10;
  pop.vehicles = 4;
  pop.edge_servers = 1;
  pop.smartphones = 20;
  pop.humans = 8;
  pop.red_fraction = 0.08;
  pop.mobile_fraction = 0.25;
  rt->populate(pop);
  for (int i = 0; i < 6; ++i) {
    rt->world().add_target({250.0 + 160 * i, 500.0}, nullptr, "hostile");
  }
  rt->attacks().schedule_sybil(6, sim::SimTime::seconds(20), sim::Rng(in.sybil_seed));
  rt->start();
  const auto t1 = Clock::now();
  out.setup_ms = ms_between(t0, t1);

  double sim_ms = 0.0;
  double clock_s = 0.0;
  const auto advance_to = [&](double until_s) {
    while (clock_s < until_s) {
      clock_s = std::min(until_s, clock_s + kMissionAdvanceS);
      const auto a = Clock::now();
      rt->run_until(sim::SimTime::seconds(clock_s));
      const double ms = ms_between(a, Clock::now());
      out.advance_ms.push_back(ms);
      sim_ms += ms;
    }
  };
  advance_to(300.0);  // discovery + characterization

  const synthesis::Goal goal{synthesis::GoalKind::kPersistentSurveillance,
                             {{100, 100}, {1300, 900}}, 0.5};
  const auto l0 = Clock::now();
  const auto mid = rt->launch_mission(goal, core::Runtime::MissionOptions{});
  out.launch_ms = ms_between(l0, Clock::now());
  out.launched = mid.has_value();

  sim::StableHash status("perfbench.mission.status");
  if (mid) {
    rt->attacks().schedule_sensor_blackout(things::Modality::kCamera, rcfg.area,
                                           sim::SimTime::seconds(500),
                                           sim::SimTime::seconds(800), 1.0);
    rt->attacks().schedule_mass_kill(
        0.6, sim::SimTime::seconds(560),
        [](const things::Asset& a) {
          return a.device_class == things::DeviceClass::kSensorMote ||
                 a.device_class == things::DeviceClass::kDrone;
        },
        sim::Rng(in.strike_seed));
    for (int step = 1; step <= 40; ++step) {
      advance_to(300.0 + 25.0 * step);
      const core::MissionStatus s = rt->mission_status(*mid);
      status.mix_double(s.quality)
          .mix_size(s.member_count)
          .mix_size(s.repairs)
          .mix_size(s.modality_switches)
          .mix_bool(s.feasible)
          .mix_enum(s.active_modality)
          .mix_size(s.confirmed_tracks)
          .mix_double(s.tracking_error_m)
          .mix_double(s.service_latency_s)
          .mix_bool(s.service_placed);
    }
  }
  out.phase_ms = ms_between(t1, Clock::now());
  out.events = rt->simulator().executed_count();
  out.status_digest = perfbench::hex64(status.digest());
  out.metrics_digest = perfbench::hex64(rt->network().metrics().digest());
  out.layers.sim_wall_ms = sim_ms;
  out.layers.add_sim(rt->simulator());
  out.layers.add_net(rt->network());
  return out;
}

bool check_mission(const perfbench::GoldenBook& book, std::size_t variant,
                   const MissionRun& r) {
  return r.launched && book.matches(variant, "status", r.status_digest) &&
         book.matches(variant, "metrics", r.metrics_digest) &&
         book.matches(variant, "events", std::to_string(r.events));
}

// ------------------------------------------------------------ epidemic ----

constexpr std::uint64_t kMatrixSeed = 20260807;  // bench_dissemination's

std::vector<sim::ScenarioCell> epidemic_cells(std::size_t variant) {
  const sim::ScenarioMatrix matrix = dissem::dissem_matrix(kMatrixSeed + variant);
  std::vector<sim::ScenarioCell> cells;
  for (const sim::ScenarioCell& c : matrix.all_cells()) {
    if (matrix.axes()[1].variants[c.choice[1]] == "waypoint") cells.push_back(c);
  }
  return cells;
}

struct CellRun {
  double build_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

CellRun run_cell(const sim::ScenarioCell& cell, bool profiling, LayerProfile* layers) {
  CellRun out;
  const dissem::DissemSpec spec = dissem::spec_for_cell(cell);
  const auto t0 = Clock::now();
  auto s = std::make_unique<dissem::DissemScenario>(spec, cell.seed);
  const auto t1 = Clock::now();
  s->sim.set_profiling(profiling);
  s->run_to_horizon();
  const auto t2 = Clock::now();
  out.build_ms = ms_between(t0, t1);
  out.run_ms = ms_between(t1, t2);
  out.events = s->sim.executed_count();
  out.digest = s->outcome().digest;
  if (layers != nullptr) {
    layers->sim_wall_ms += out.run_ms;
    layers->add_sim(s->sim);
    layers->add_net(s->net);
  }
  return out;
}

// -------------------------------------------------------------- whatif ----

// The query mix is synthetic: no measured what-if traffic exists. Each value
// is chosen as follows (perfbench/README.md gives the same account).
//   kColdEvery      one query in 10 is cold. The stream is meant to be
//                   mostly hot beside a steady cold share, which rules out
//                   bench_serve's half-hot, half-cold mix. At 10%, p50 lies
//                   inside the hot queries and p99_ms inside the cold ones
//                   (it is p97.5 per pass, about the cold queries' 75th
//                   percentile), so neither sits on the hot/cold boundary,
//                   where it would flip between the two from run to run.
//   kOfferedQps     about 30% of this mix's capacity. The service's
//                   capacities at 4 workers on a 4-vCPU Xeon VM, 416 qps
//                   all-hot and 61 qps all-cold, give
//                   1 / (0.9 / 416 + 0.1 / 61) = 263 qps for it. That is far
//                   enough below the knee that p99 measures service and
//                   batching, not a queue. Measured, the service is busy
//                   about half of each pass, not 30%: nearly every batch
//                   holds one query, so it runs on one worker. Each pass
//                   prints its busy time, and a growing backlog fails the
//                   run.
//   kHotPrefixes,   the hot working set is twice the cache, so eviction and
//   kCacheCapacity  the disk tier are exercised on every pass. bench_serve
//                   uses a 64-entry cache, but a hot set twice that size
//                   would mean warming 128 prefixes per pass, 8 times the
//                   present setup_s; 8 entries and 16 prefixes keep the
//                   ratio of working set to cache.
//   kDeltas         6 attack deltas per hot prefix (the 4 campaigns at
//                   rising intensity), so a hot prefix is reused about 22
//                   times per 5 s pass.
//   kBranchS,       the branch point is near the horizon, so a hot query
//   kHorizonS       restores and runs 10 s, and a cold one simulates 50 s.
constexpr double kHorizonS = 60.0;
constexpr double kBranchS = 50.0;
constexpr std::size_t kHotPrefixes = 16;
constexpr std::size_t kDeltas = 6;
constexpr std::size_t kColdPrefixes = 160;
constexpr std::size_t kCacheCapacity = 8;
constexpr double kOfferedQps = 80.0;
constexpr std::size_t kColdEvery = 10;
/// Replays of the stream per run, each against a freshly set-up service.
constexpr std::size_t kWhatifPasses = 6;

/// One member of a variant's query universe: hot prefix p with delta d
/// ("h<p>.<d>"), or cold prefix i with delta i % kDeltas ("c<i>").
struct WhatifKey {
  bool cold = false;
  std::size_t index = 0;
  std::size_t delta = 0;
  std::string id() const {
    return cold ? "c" + std::to_string(index)
                : "h" + std::to_string(index) + "." + std::to_string(delta);
  }
};

serve::Query whatif_query(std::size_t variant, const WhatifKey& k) {
  static constexpr dissem::AttackCampaign kCycle[] = {
      dissem::AttackCampaign::kJamming, dissem::AttackCampaign::kRegionStrike,
      dissem::AttackCampaign::kGatewayHunt, dissem::AttackCampaign::kCombined};
  serve::Query q;
  q.spec.name = "perfbench-whatif";
  q.spec.layers = dissem::ground_aerial_layers();
  q.spec.mobility = dissem::MobilityKind::kWaypoint;
  q.spec.attack = dissem::AttackCampaign::kNone;
  q.spec.horizon_s = kHorizonS;
  q.seed = k.cold ? 500000 + 1000 * variant + k.index : 8200 + 100 * variant + k.index;
  q.branch_time_s = kBranchS;
  q.delta.attack = kCycle[k.delta % 4];
  q.delta.intensity = 0.3 + 0.1 * static_cast<double>(k.delta);
  q.delta.salt = k.delta;
  return q;
}

/// The measured query stream: kOfferedQps arrivals per second for
/// `seconds`. Exactly one query in every kColdEvery, at a seeded position,
/// is on a never-seen prefix. The hot queries walk seeded shuffles of all
/// (hot prefix, delta) pairs, so every seed offers the same mix.
std::vector<WhatifKey> whatif_stream(std::uint64_t seed, double seconds) {
  sim::Rng rng = sim::Rng(seed).child("perfbench.whatif.stream");
  const auto n = static_cast<std::size_t>(std::ceil(kOfferedQps * seconds));
  std::vector<WhatifKey> hot;
  for (std::size_t p = 0; p < kHotPrefixes; ++p) {
    for (std::size_t d = 0; d < kDeltas; ++d) hot.push_back({false, p, d});
  }
  std::vector<WhatifKey> out;
  std::size_t next_cold = rng.next_u64() % kColdPrefixes;
  std::size_t next_hot = hot.size();
  std::size_t cold_at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kColdEvery == 0) cold_at = i + rng.next_u64() % kColdEvery;
    if (i == cold_at) {
      out.push_back({true, next_cold, next_cold % kDeltas});
      next_cold = (next_cold + 1) % kColdPrefixes;
      continue;
    }
    if (next_hot == hot.size()) {
      rng.shuffle(hot);
      next_hot = 0;
    }
    out.push_back(hot[next_hot++]);
  }
  return out;
}

std::size_t whatif_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(4, hw);
}

/// Checks every answer of a batch against the golden book.
void check_batch(const perfbench::GoldenBook& book, std::size_t variant,
                 const std::vector<WhatifKey>& keys, const serve::BatchResult& res,
                 OpLedger& ledger) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const serve::QueryResult& r = res.results[i];
    const bool ok = r.ok && !r.rejected &&
                    book.matches(variant, keys[i].id(), perfbench::hex64(r.outcome.digest));
    ledger.record(ok, "whatif " + keys[i].id() + (r.error.empty() ? "" : ": " + r.error));
  }
}

struct Service {
  std::unique_ptr<serve::CampaignService> svc;
  double setup_ms = 0.0;
};

/// Builds a service over a fresh snapshot directory and pre-warms it with
/// one query per hot prefix (simulated cold, stored to memory and disk).
/// The pre-warm submits one prefix per batch, as a standing service warms
/// up from single arrivals. One 16-query batch would instead time how many
/// vCPUs the host lends the runner at that moment: on a shared 4-vCPU VM it
/// took 0.1 s or 0.35 s from pass to pass.
Service build_service(const std::string& dir, std::size_t variant,
                      const perfbench::GoldenBook& book, OpLedger& ledger) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Service s;
  const auto t0 = Clock::now();
  serve::CampaignService::Options so;
  so.workers = whatif_workers();
  so.cache_capacity = kCacheCapacity;
  so.repro_program = "perfbench";
  so.snapshot_dir = dir;
  s.svc = std::make_unique<serve::CampaignService>(so);
  std::vector<std::vector<WhatifKey>> keys;
  std::vector<serve::BatchResult> answers;
  for (std::size_t p = 0; p < kHotPrefixes; ++p) {
    keys.push_back({{false, p, 0}});
    answers.push_back(s.svc->submit({whatif_query(variant, keys.back()[0])}));
  }
  s.setup_ms = ms_between(t0, Clock::now());
  for (std::size_t p = 0; p < kHotPrefixes; ++p) {
    check_batch(book, variant, keys[p], answers[p], ledger);
  }
  return s;
}

struct StreamResult {
  perfbench::OpenLoopLog log;
  double busy_ms = 0.0;
  std::size_t batches = 0, answered = 0;
  std::size_t cache_hits = 0, prefix_sims = 0, batch_dedup = 0, disk_hits = 0;
};

/// Open loop: query i is due at i / kOfferedQps seconds. Whatever is due is
/// submitted as one batch; each query's latency runs from its due time to
/// the return of the submit() that answered it.
StreamResult run_stream(serve::CampaignService& svc, std::size_t variant,
                        const std::vector<WhatifKey>& stream,
                        const perfbench::GoldenBook& book, OpLedger& ledger) {
  StreamResult out;
  std::vector<serve::Query> queries;
  for (const WhatifKey& k : stream) queries.push_back(whatif_query(variant, k));
  const auto start = Clock::now();
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / kOfferedQps));
  };
  std::size_t i = 0;
  while (i < stream.size()) {
    const auto now = Clock::now();
    if (due(i) > now) {
      std::this_thread::sleep_until(due(i));
      continue;
    }
    std::size_t j = i;
    while (j < stream.size() && due(j) <= now) ++j;
    const std::vector<serve::Query> batch(queries.begin() + i, queries.begin() + j);
    const std::vector<WhatifKey> keys(stream.begin() + i, stream.begin() + j);
    const auto submit_at = Clock::now();
    const serve::BatchResult res = svc.submit(batch);
    const auto answer_at = Clock::now();
    out.busy_ms += ms_between(submit_at, answer_at);
    ++out.batches;
    out.cache_hits += res.cache_hits;
    out.prefix_sims += res.prefix_sims;
    out.batch_dedup += res.batch_dedup;
    out.disk_hits += res.disk_hits;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      perfbench::QueryStamp st;
      st.due_ms = ms_between(start, due(i + k));
      st.submit_ms = ms_between(start, submit_at);
      st.answer_ms = ms_between(start, answer_at);
      st.service_ms = res.results[k].latency_ms;
      out.log.add(st);
      if (res.results[k].ok) ++out.answered;
    }
    check_batch(book, variant, keys, res, ledger);
    i = j;
  }
  return out;
}

/// One cold query replayed on stacks this driver owns, with the kernel
/// profiler on: prefix to the branch point, save + encode, restore into a
/// fresh stack, apply the delta, run to the horizon.
struct Replica {
  double wall_ms = 0.0, build_ms = 0.0;
  double save_ms = 0.0, encode_ms = 0.0, restore_ms = 0.0, image_bytes = 0.0;
  bool ok = false;
  LayerProfile layers;
};

Replica run_replica(std::size_t variant, const perfbench::GoldenBook& book,
                    bool profiling) {
  Replica out;
  const WhatifKey key{false, 0, 1};
  const serve::Query q = whatif_query(variant, key);
  const auto t0 = Clock::now();
  auto a = std::make_unique<dissem::DissemScenario>(q.spec, q.seed);
  out.build_ms += ms_between(t0, Clock::now());
  a->sim.set_profiling(profiling);
  auto k0 = Clock::now();
  a->sim.run_until(sim::SimTime::seconds(q.branch_time_s));
  out.layers.sim_wall_ms += ms_between(k0, Clock::now());

  auto c0 = Clock::now();
  const sim::Snapshot snap = a->sim.checkpoint().save(serve::prefix_hash(q));
  out.save_ms = ms_between(c0, Clock::now());
  std::string image;
  c0 = Clock::now();
  const bool encoded = a->sim.checkpoint().serialize_snapshot(snap, image);
  out.encode_ms = ms_between(c0, Clock::now());
  out.image_bytes = static_cast<double>(image.size());
  out.layers.add_sim(a->sim);

  const auto t1 = Clock::now();
  auto b = std::make_unique<dissem::DissemScenario>(q.spec, q.seed);
  out.build_ms += ms_between(t1, Clock::now());
  b->sim.set_profiling(profiling);
  c0 = Clock::now();
  b->sim.checkpoint().restore(snap);
  out.restore_ms = ms_between(c0, Clock::now());
  serve::apply_delta(*b, q);
  k0 = Clock::now();
  b->sim.run_until(sim::SimTime::seconds(q.spec.horizon_s));
  out.layers.sim_wall_ms += ms_between(k0, Clock::now());
  out.wall_ms = ms_between(t0, Clock::now());
  // The branch stack's kernel profile starts at the restore, so it adds to
  // the prefix's; its network state was restored, so it alone covers the
  // whole query.
  out.layers.add_sim(b->sim);
  out.layers.add_net(b->net);
  out.ok = encoded && book.matches(variant, key.id(), perfbench::hex64(b->outcome().digest));
  return out;
}

// --------------------------------------------------------------- runs -----

struct RunResult {
  MetricSet metrics;
  OpLedger ledger;
};

template <typename T, typename Key>
const T& median_by(const std::vector<T>& xs, Key key) {
  std::vector<std::size_t> idx(xs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return key(xs[a]) < key(xs[b]); });
  return xs[idx[idx.size() / 2]];
}

bool time_left(Clock::time_point start, double seconds) {
  return ms_between(start, Clock::now()) < 1000.0 * seconds;
}

void print_reconcile(const LayerProfile& p) {
  std::printf("reconcile: sum of layer busy_ms %.3f + sim.kernel_ms %.3f = %.3f; "
              "profiled kernel wall %.3f ms\n",
              p.busy_total(), p.kernel_ms(), p.busy_total() + p.kernel_ms(),
              p.sim_wall_ms);
}

RunResult run_mission_workload(const Options& o, std::size_t variant,
                               const perfbench::GoldenBook& book) {
  RunResult r;
  const auto start = Clock::now();
  if (!o.trace) {
    std::vector<Pass> passes;
    do {
      const MissionRun m = run_mission(variant, false);
      r.ledger.record(check_mission(book, variant, m), "mission run");
      passes.push_back({m.setup_ms / 1000.0, m.phase_ms / 1000.0,
                        static_cast<double>(m.events), m.advance_ms});
    } while (time_left(start, o.seconds) || passes.size() < 4);
    add_end_to_end(r.metrics, passes, Latencies::kFastestPerOp, "per 12.5 s kernel advance",
                   "kernel events");
    return r;
  }
  // Traced: untraced and profiled runs alternate so the overhead ratio
  // compares like with like; the median profiled run supplies the layers.
  std::vector<MissionRun> profiled;
  std::vector<double> plain_ms;
  do {
    const MissionRun u = run_mission(variant, false);
    r.ledger.record(check_mission(book, variant, u), "mission run");
    plain_ms.push_back(u.phase_ms);
    profiled.push_back(run_mission(variant, true));
    r.ledger.record(check_mission(book, variant, profiled.back()), "profiled mission run");
  } while (time_left(start, o.seconds) || profiled.size() < 3);
  const MissionRun& m = median_by(profiled, [](const MissionRun& x) { return x.phase_ms; });
  LayerExtras x;
  x.profile_overhead = m.phase_ms / median(plain_ms);
  x.launch_ms = m.launch_ms;
  add_layer_metrics(r.metrics, m.layers, x);
  print_reconcile(m.layers);
  return r;
}

struct EpidemicPass {
  double build_ms = 0.0, run_ms = 0.0, events = 0.0;
  std::vector<double> cell_ms;
  LayerProfile layers;
};

EpidemicPass run_epidemic_pass(const std::vector<sim::ScenarioCell>& cells,
                               std::size_t variant, bool profiling,
                               const perfbench::GoldenBook& book, OpLedger& ledger) {
  EpidemicPass p;
  for (const sim::ScenarioCell& c : cells) {
    const CellRun cr = run_cell(c, profiling, &p.layers);
    ledger.record(book.matches(variant, std::to_string(c.index), perfbench::hex64(cr.digest)),
                  "epidemic cell " + std::to_string(c.index));
    p.build_ms += cr.build_ms;
    p.run_ms += cr.run_ms;
    p.events += static_cast<double>(cr.events);
    p.cell_ms.push_back(cr.run_ms);
  }
  return p;
}

RunResult run_epidemic_workload(const Options& o, std::size_t variant,
                                const perfbench::GoldenBook& book) {
  RunResult r;
  const std::vector<sim::ScenarioCell> cells = epidemic_cells(variant);
  const auto start = Clock::now();
  if (!o.trace) {
    std::vector<Pass> passes;
    do {
      const EpidemicPass p = run_epidemic_pass(cells, variant, false, book, r.ledger);
      passes.push_back({p.build_ms / 1000.0, p.run_ms / 1000.0, p.events, p.cell_ms});
    } while (time_left(start, o.seconds) || passes.size() < 4);
    add_end_to_end(r.metrics, passes, Latencies::kFastestPerOp, "per cell", "kernel events");
    return r;
  }
  std::vector<EpidemicPass> profiled;
  std::vector<double> plain_ms;
  do {
    plain_ms.push_back(run_epidemic_pass(cells, variant, false, book, r.ledger).run_ms);
    profiled.push_back(run_epidemic_pass(cells, variant, true, book, r.ledger));
  } while (time_left(start, o.seconds) || profiled.size() < 2);
  const EpidemicPass& p = median_by(profiled, [](const EpidemicPass& x) { return x.run_ms; });
  LayerExtras x;
  x.profile_overhead = p.run_ms / median(plain_ms);
  x.build_ms = p.build_ms;
  add_layer_metrics(r.metrics, p.layers, x);
  print_reconcile(p.layers);
  return r;
}

/// One whatif pass: a fresh service over a fresh snapshot directory, set up
/// and pre-warmed, then the open-loop stream.
struct WhatifPass {
  double setup_ms = 0.0;
  StreamResult stream;
  serve::CampaignService::CacheStats stats;  ///< over the stream only
};

WhatifPass run_whatif_pass(const std::string& dir, std::size_t variant,
                           const std::vector<WhatifKey>& stream,
                           const perfbench::GoldenBook& book, OpLedger& ledger) {
  WhatifPass p;
  Service service = build_service(dir, variant, book, ledger);
  p.setup_ms = service.setup_ms;
  const serve::CampaignService::CacheStats before = service.svc->cache_stats();
  p.stream = run_stream(*service.svc, variant, stream, book, ledger);
  const serve::CampaignService::CacheStats after = service.svc->cache_stats();
  p.stats.evictions = after.evictions - before.evictions;
  p.stats.disk_stores = after.disk_stores - before.disk_stores;
  service = Service{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const StreamResult& s = p.stream;
  // Above capacity the latencies measure the queue, not the service, so a
  // growing backlog fails the run.
  const bool growing = s.log.backlog_growing(50.0);
  ledger.record(!growing, "whatif pass: backlog growing, offered rate above capacity");
  std::printf("whatif pass: set-up %.1f ms; %zu queries at %.0f qps offered, "
              "%zu batches, busy %.1f ms, backlog %s\n",
              p.setup_ms, s.log.size(), kOfferedQps, s.batches, s.busy_ms,
              growing ? "GROWING (offered rate above capacity)" : "steady");
  return p;
}

RunResult run_whatif_workload(const Options& o, std::size_t variant,
                              const perfbench::GoldenBook& book) {
  RunResult r;
  // The same stream is replayed kWhatifPasses times, each against a fresh
  // service, so every query has repetitions to take its latency across.
  const std::vector<WhatifKey> stream = whatif_stream(o.seed, o.seconds / kWhatifPasses);
  std::vector<WhatifPass> passes;
  for (std::size_t k = 0; k < kWhatifPasses; ++k) {
    passes.push_back(run_whatif_pass(o.scratch_dir + "/whatif-" + std::to_string(k),
                                     variant, stream, book, r.ledger));
  }
  if (!o.trace) {
    std::vector<Pass> e;
    for (const WhatifPass& p : passes) {
      e.push_back({p.setup_ms / 1000.0, p.stream.busy_ms / 1000.0,
                   static_cast<double>(p.stream.answered), p.stream.log.latency_ms()});
    }
    add_end_to_end(r.metrics, e, Latencies::kPerPassMedian, "arrival-to-answer per query",
                   "answered queries");
    return r;
  }
  const WhatifPass& p =
      median_by(passes, [](const WhatifPass& x) { return x.stream.busy_ms; });
  const StreamResult& s = p.stream;
  LayerExtras x;
  const double n = static_cast<double>(s.log.size());
  x.hit_rate = n > 0 ? static_cast<double>(s.cache_hits) / n : 0.0;
  x.prefix_sims = static_cast<double>(s.prefix_sims);
  x.batch_dedup = static_cast<double>(s.batch_dedup);
  x.disk_hits = static_cast<double>(s.disk_hits);
  x.evictions = static_cast<double>(p.stats.evictions);
  x.disk_stores = static_cast<double>(p.stats.disk_stores);
  x.service_p50 = perfbench::tail_quantile(s.log.service_ms(), 0.5).value;
  x.service_p99 = perfbench::tail_quantile(s.log.service_ms(), 0.99).value;
  x.wait_p50 = perfbench::tail_quantile(s.log.wait_ms(), 0.5).value;
  x.wait_p99 = perfbench::tail_quantile(s.log.wait_ms(), 0.99).value;
  x.batches = static_cast<double>(s.batches);
  x.batch_size_mean = s.batches > 0 ? n / static_cast<double>(s.batches) : 0.0;
  x.gen_lag_max = s.log.max_gen_lag_ms();
  // Kernel, net, world, dissem and checkpoint layers: the service's own
  // simulators are out of reach, so a cold query is replayed on stacks this
  // driver owns (untraced and profiled alternately, median kept).
  std::vector<Replica> profiled;
  std::vector<double> plain_ms;
  for (int k = 0; k < 5; ++k) {
    const Replica u = run_replica(variant, book, false);
    r.ledger.record(u.ok, "whatif replica");
    plain_ms.push_back(u.wall_ms);
    profiled.push_back(run_replica(variant, book, true));
    r.ledger.record(profiled.back().ok, "profiled whatif replica");
  }
  const Replica& rep = median_by(profiled, [](const Replica& y) { return y.wall_ms; });
  x.profile_overhead = rep.wall_ms / median(plain_ms);
  x.build_ms = rep.build_ms;
  x.save_ms = rep.save_ms;
  x.encode_ms = rep.encode_ms;
  x.restore_ms = rep.restore_ms;
  x.image_bytes = rep.image_bytes;
  add_layer_metrics(r.metrics, rep.layers, x);
  print_reconcile(rep.layers);
  return r;
}

// -------------------------------------------------------------- golden ----

int emit_golden(const std::string& workload, std::size_t from, std::size_t to) {
  std::printf("# perfbench golden digests: %s, variants %zu..%zu\n", workload.c_str(),
              from, to - 1);
  for (std::size_t v = from; v < to; ++v) {
    if (workload == "mission") {
      const MissionRun m = run_mission(v, false);
      if (!m.launched) return 1;
      std::printf("%zu status %s\n%zu metrics %s\n%zu events %llu\n", v,
                  m.status_digest.c_str(), v, m.metrics_digest.c_str(), v,
                  static_cast<unsigned long long>(m.events));
    } else if (workload == "epidemic") {
      for (const sim::ScenarioCell& c : epidemic_cells(v)) {
        std::printf("%zu %zu %s\n", v, c.index,
                    perfbench::hex64(run_cell(c, false, nullptr).digest).c_str());
      }
    } else if (workload == "whatif") {
      std::vector<WhatifKey> keys;
      for (std::size_t p = 0; p < kHotPrefixes; ++p) {
        for (std::size_t d = 0; d < kDeltas; ++d) keys.push_back({false, p, d});
      }
      for (std::size_t i = 0; i < kColdPrefixes; ++i) keys.push_back({true, i, i % kDeltas});
      for (const WhatifKey& k : keys) {
        const auto o = serve::CampaignService::run_uncached(whatif_query(v, k));
        std::printf("%zu %s %s\n", v, k.id().c_str(), perfbench::hex64(o.digest).c_str());
      }
    } else {
      return 2;
    }
    std::fflush(stdout);
  }
  return 0;
}

// ---------------------------------------------------------------- main ----

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <mission|epidemic|whatif> --seed N --seconds S "
               "--trace 0|1 [--golden DIR] [--scratch DIR] [--corrupt-golden]\n"
               "       perfbench golden <workload> [--variants A:B]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string first = argv[1];
  if (first == "golden") {
    if (argc < 3) return usage();
    std::size_t from = 0, to = kVariants;
    for (int i = 3; i + 1 < argc; i += 2) {
      if (std::strcmp(argv[i], "--variants") == 0) {
        if (std::sscanf(argv[i + 1], "%zu:%zu", &from, &to) != 2 || from >= to) return usage();
      }
    }
    return emit_golden(argv[2], from, to);
  }

  Options o;
  o.workload = first;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--golden" && has_value) {
      o.golden_dir = argv[++i];
    } else if (a == "--scratch" && has_value) {
      o.scratch_dir = argv[++i];
    } else if (a == "--corrupt-golden") {
      o.corrupt_golden = true;
    } else {
      return usage();
    }
  }
  if (o.workload != "mission" && o.workload != "epidemic" && o.workload != "whatif") {
    return usage();
  }
  if (!(o.seconds > 0.0)) return usage();

  perfbench::GoldenBook book;
  const std::string golden_path = o.golden_dir + "/" + o.workload + ".txt";
  if (!book.load(golden_path)) {
    std::fprintf(stderr, "perfbench: cannot load golden digests from %s\n",
                 golden_path.c_str());
    return 1;
  }
  const std::size_t variant = static_cast<std::size_t>(o.seed % book.variants());
  if (o.corrupt_golden) {
    // One digest every run of this variant checks.
    const char* id = o.workload == "mission"    ? "status"
                     : o.workload == "epidemic" ? nullptr
                                                : "h0.0";
    if (id != nullptr) {
      book.corrupt(variant, id);
    } else {
      book.corrupt(variant, std::to_string(epidemic_cells(variant).front().index));
    }
  }
  std::printf("perfbench %s: seed %llu -> golden variant %zu of %zu, %.3g s, trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), variant,
              book.variants(), o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult r;
  try {
    if (o.workload == "mission") {
      r = run_mission_workload(o, variant, book);
    } else if (o.workload == "epidemic") {
      r = run_epidemic_workload(o, variant, book);
    } else {
      r = run_whatif_workload(o, variant, book);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = r.ledger.attempted() > 0 && r.ledger.failed() == 0;
  std::printf("%s metrics (%s run):\n", o.workload.c_str(),
              o.trace ? "profiled, per layer" : "untraced, end to end");
  r.metrics.print_table(stdout);
  std::printf("  %-24s %16.6f %-6s %zu failed of %zu attempted%s%s\n", "error_rate",
              r.ledger.error_rate(), "ratio", r.ledger.failed(), r.ledger.attempted(),
              r.ledger.first_failure().empty() ? "" : "; first: ",
              r.ledger.first_failure().c_str());
  std::printf("%s\n", r.metrics.json(correct, r.ledger.attempted(), r.ledger.failed()).c_str());
  return 0;
}
