// C1 — Checkpoint/branch/restore for the sim kernel.
//
// The checkpoint layer's contract is digest identity: restore-at-t-then-
// run-to-T must be bit-identical to the uninterrupted run. This bench
// measures what that buys operationally:
//   1. snapshot/restore cost vs world size (save writes the state as one
//      wire image, restore decodes it; cost should scale linearly with
//      assets + in-flight frames); each rewound store is also checked
//      against the brute_connectivity oracle (tests/net_oracle.h),
//   2. the identity matrix — 8 seeds x workers {1,2,8}, every restore
//      digest-checked against its uninterrupted run; its merged digest
//      goes into the JSON as merged_digest, which CI pins to a golden,
//   3. branched what-if execution: snapshot an adversarial scenario at
//      t = 0.9T and fan K escalation variants out on the ParallelRunner,
//      vs naively re-simulating each variant from t = 0. Every branch must
//      match its naive twin bit-for-bit — the speedup is only reported if
//      the answers are identical,
//   4. campaign resume: run_resumable puts each finished replication to a
//      SnapshotStore, so a restarted sweep replays them and re-runs nothing.
// Emits BENCH_checkpoint.json; exits nonzero on any digest divergence.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/network.h"
#include "net_oracle.h"
#include "security/attacks.h"
#include "sim/checkpoint.h"
#include "sim/hash.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "sim/snapshot_store.h"
#include "sim/wire.h"
#include "things/mobility.h"
#include "things/population.h"
#include "things/world.h"

namespace {

using namespace iobt;

// ------------------------------------------------------- Bench scenario ----

/// Minimal scenario-layer checkpoint participant: one rotating beacon
/// broadcaster on a periodic loop, receive handlers counting into the
/// network's metrics. Demonstrates the re-arm contract every service
/// follows (closures are never serialized; the cursor state is).
class BeaconDriver final : public sim::Checkpointable {
 public:
  BeaconDriver(sim::Simulator& sim, net::Network& net) : sim_(sim), net_(net) {
    tag_ = sim_.intern("bench.beacon");
    sim_.checkpoint().register_participant(this);
  }
  ~BeaconDriver() override {
    sim_.cancel(event_);
    sim_.checkpoint().unregister(this);
  }

  void start(sim::Duration period) {
    period_ = period;
    started_ = true;
    install_handlers();
    next_at_ = sim_.now() + period_;
    event_ = sim_.schedule_at(next_at_, [this] { run(); }, tag_);
  }

  std::string_view checkpoint_key() const override { return "bench.beacon"; }

  void save(sim::WireWriter& w) const override {
    w.time(next_at_).dur(period_).u64(round_).u64(sim_.pending_seq(event_))
        .boolean(started_);
  }

  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override {
    sim_.cancel(event_);
    event_ = sim::kNoEvent;
    next_at_ = r.time();
    period_ = r.dur();
    round_ = r.u64();
    const std::uint64_t seq = r.u64();
    started_ = r.boolean();
    if (!r.ok()) return false;
    if (started_) {
      install_handlers();
      if (seq != 0) {
        armer.rearm(next_at_, seq, [this] { run(); }, tag_, &event_);
      }
    }
    return true;
  }

 private:
  void install_handlers() {
    for (net::NodeId n = 0; n < net_.node_count(); ++n) {
      net_.set_handler(n, [this](const net::Message&) {
        net_.metrics().count("bench.received");
      });
    }
  }

  void run() {
    event_ = sim::kNoEvent;
    const std::size_t n = net_.node_count();
    if (n > 0) {
      const auto src = static_cast<net::NodeId>(round_ % n);
      if (net_.node_up(src)) {
        net_.broadcast(src, net::Message{.kind = "beacon", .size_bytes = 24});
      }
      for (net::NodeId m = static_cast<net::NodeId>(handlers_); m < n; ++m) {
        net_.set_handler(m, [this](const net::Message&) {
          net_.metrics().count("bench.received");
        });
      }
    }
    handlers_ = n;
    ++round_;
    next_at_ = next_at_ + period_;
    event_ = sim_.schedule_at(next_at_, [this] { run(); }, tag_);
  }

  sim::Simulator& sim_;
  net::Network& net_;
  sim::Duration period_;
  sim::TagId tag_ = sim::kUntagged;
  sim::SimTime next_at_;
  std::uint64_t round_ = 0;
  std::size_t handlers_ = 0;
  sim::EventId event_ = sim::kNoEvent;
  bool started_ = false;
};

/// One adversarial stack, deterministic from (seed, population). The
/// campaign covers the interesting snapshot windows: jamming [40, 80) s,
/// Sybil waves at 30 s and 70 s, a mass kill at 90 s.
struct Scenario {
  double side;
  sim::Simulator sim;
  net::Network net;
  things::World world;
  security::AttackInjector attacks;
  BeaconDriver beacon;

  Scenario(std::uint64_t seed, std::size_t population)
      : side(90.0 * std::sqrt(static_cast<double>(population))),
        net(sim, net::ChannelModel(2.0, 0.2), sim::Rng(seed ^ 0xBE9C0DEULL)),
        world(sim, net, {{0, 0}, {side, side}}, sim::Rng(seed)),
        attacks(world),
        beacon(sim, net) {
    sim::Rng layout(seed * 2654435761ULL + 7);
    for (std::size_t i = 0; i < population; ++i) {
      sim::Rng maker = layout.child(i);
      things::AssetSpec a = things::make_asset_template(
          things::DeviceClass::kSensorMote, things::Affiliation::kBlue, maker);
      a.mobility = std::make_shared<things::RandomWaypoint>(
          world.area(), 4.0, 2.0, maker.child(0xBEAC07));
      world.add_asset(std::move(a), {maker.uniform(0, side), maker.uniform(0, side)},
                      things::radio_for_class(things::DeviceClass::kSensorMote));
    }
    world.start(sim::Duration::seconds(1));
    beacon.start(sim::Duration::millis(500));
    attacks.schedule_jamming({side / 2, side / 2}, side * 0.3,
                             sim::SimTime::seconds(40), sim::SimTime::seconds(80),
                             0.9);
    sim::Rng attack_rng(seed ^ 0x5EC5EC5ECULL);
    attacks.schedule_sybil(4, sim::SimTime::seconds(30), attack_rng);
    attacks.schedule_sybil(3, sim::SimTime::seconds(70), attack_rng);
    attacks.schedule_mass_kill(
        0.2, sim::SimTime::seconds(90),
        [](const things::Asset& a) {
          return a.device_class == things::DeviceClass::kSensorMote;
        },
        attack_rng);
  }

  std::uint64_t digest() const {
    std::uint64_t h = net.metrics().digest();
    const auto mix = [&h](std::uint64_t v) { sim::hash_combine(h, v); };
    const auto mix_double = [&](double x) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      mix(bits);
    };
    mix(static_cast<std::uint64_t>(sim.now().nanos()));
    mix(world.asset_count());
    for (const things::Asset& a : world.assets()) {
      mix(world.asset_alive(a.id) ? 1 : 2);
      const sim::Vec2 p = net.position(a.node);
      mix_double(p.x);
      mix_double(p.y);
    }
    mix(attacks.log().size());
    for (const auto& e : attacks.log()) {
      mix(sim::fnv1a(e.type));
      mix(static_cast<std::uint64_t>(e.at.nanos()));
    }
    return h;
  }
};

constexpr std::uint64_t kSeedBase = 7100;

}  // namespace

int main() {
  using namespace iobt::bench;

  header("C1: deterministic checkpoint / branch / restore",
         "restore-at-t-then-run-to-T is digest-identical to the "
         "uninterrupted run; branching beats naive re-simulation");

  bool all_identical = true;

  // ---- 1. Snapshot/restore cost vs world size -------------------------
  struct LadderRow {
    std::size_t population;
    double save_ms;
    double restore_ms;
    double rewind_run_ms;
    bool identical;
    bool store_identical;  ///< restored edge store == brute_connectivity
  };
  std::vector<LadderRow> ladder;
  row("%-12s %-10s %-12s %-14s %-10s %-10s", "population", "save_ms", "restore_ms",
      "rewind_run_ms", "identical", "store");
  for (const std::size_t population : {std::size_t{250}, std::size_t{1000},
                                       std::size_t{4000}}) {
    Scenario s(kSeedBase, population);
    s.sim.run_until(sim::SimTime::seconds(20));

    WallTimer save_t;
    const sim::Snapshot snap = s.sim.checkpoint().save();
    const double save_ms = save_t.ms();

    s.sim.run_until(sim::SimTime::seconds(45));  // into the jamming window
    const std::uint64_t uninterrupted = s.digest();

    WallTimer restore_t;
    s.sim.checkpoint().restore(snap);
    const double restore_ms = restore_t.ms();
    const bool store_identical = iobt::testing::store_matches_oracle(s.net);

    WallTimer rewind_t;
    s.sim.run_until(sim::SimTime::seconds(45));
    const double rewind_run_ms = rewind_t.ms();

    const bool identical = s.digest() == uninterrupted;
    all_identical = all_identical && identical && store_identical;
    ladder.push_back(
        {population, save_ms, restore_ms, rewind_run_ms, identical, store_identical});
    row("%-12zu %-10.3f %-12.3f %-14.1f %-10s %-10s", population, save_ms, restore_ms,
        rewind_run_ms, identical ? "yes" : "NO", store_identical ? "== oracle" : "DIVERGED");
  }

  // ---- 2. Identity matrix: seeds x workers -----------------------------
  const auto seeds = sim::ParallelRunner::seed_range(kSeedBase, 8);
  const auto matrix_body = [](sim::ReplicationContext& ctx) {
    Scenario source(ctx.seed, 48);
    source.sim.run_until(sim::SimTime::seconds(55));  // mid-jam, mid-wave
    const sim::Snapshot snap = source.sim.checkpoint().save();
    source.sim.run_until(sim::SimTime::seconds(90));
    const std::uint64_t uninterrupted = source.digest();

    Scenario branch(ctx.seed, 48);
    branch.sim.checkpoint().restore(snap);
    branch.sim.run_until(sim::SimTime::seconds(90));
    const std::uint64_t fresh = branch.digest();

    source.sim.checkpoint().restore(snap);
    source.sim.run_until(sim::SimTime::seconds(90));
    const std::uint64_t rewound = source.digest();

    std::uint64_t mismatches = 0;
    if (fresh != uninterrupted) ++mismatches;
    if (rewound != uninterrupted) ++mismatches;
    ctx.metrics.count("ckpt.digest_lo",
                      static_cast<double>(uninterrupted & 0xffffffffu));
    ctx.metrics.count("ckpt.mismatches", static_cast<double>(mismatches));
    return mismatches;
  };

  row("");
  row("%-10s %-14s %-18s", "workers", "mismatches", "merged_digest");
  std::uint64_t matrix_reference = 0;
  bool matrix_identical = true;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto outcome = sim::ParallelRunner(workers).run<std::uint64_t>(seeds, matrix_body);
    std::uint64_t mismatches = outcome.failures;
    for (const auto& r : outcome.replications) mismatches += r.payload;
    const std::uint64_t digest = outcome.merged.digest();
    if (workers == 1) matrix_reference = digest;
    const bool ok = mismatches == 0 && digest == matrix_reference;
    matrix_identical = matrix_identical && ok;
    row("%-10zu %-14llu %016llx%s", workers, static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(digest), ok ? "" : "  << DIVERGED");
  }
  all_identical = all_identical && matrix_identical;

  // ---- 3. Branched what-if vs naive re-simulation ---------------------
  // K escalation variants of one 100 s scenario, branched at t = 90 s.
  constexpr std::size_t kBranches = 8;
  constexpr std::size_t kBranchPopulation = 300;
  const auto variant = [](security::AttackInjector& attacks, std::size_t k) {
    // What-if: the adversary escalates with a second strike whose severity
    // varies per branch. Scheduled off the tick/beacon grid so no
    // tie-break depends on how we reached t = 90 s.
    attacks.schedule_mass_kill(
        0.05 * static_cast<double>(k + 1), sim::SimTime::seconds(92.25),
        [](const things::Asset&) { return true; },
        sim::Rng(0xE5CA1A7EULL + k));
  };

  WallTimer naive_t;
  const sim::ParallelRunner fan(bench_workers());
  const auto naive = fan.run<std::uint64_t>(
      sim::ParallelRunner::seed_range(0, kBranches),
      [&variant](sim::ReplicationContext& ctx) {
        Scenario s(kSeedBase + 1, kBranchPopulation);
        s.sim.run_until(sim::SimTime::seconds(90));
        variant(s.attacks, ctx.index);
        s.sim.run_until(sim::SimTime::seconds(100));
        return s.digest();
      });
  const double naive_ms = naive_t.ms();

  WallTimer branched_t;
  Scenario trunk(kSeedBase + 1, kBranchPopulation);
  trunk.sim.run_until(sim::SimTime::seconds(90));
  const sim::Snapshot branch_point = trunk.sim.checkpoint().save();
  const auto branched = fan.run<std::uint64_t>(
      sim::ParallelRunner::seed_range(0, kBranches),
      [&variant, &branch_point](sim::ReplicationContext& ctx) {
        Scenario s(kSeedBase + 1, kBranchPopulation);
        s.sim.checkpoint().restore(branch_point);
        variant(s.attacks, ctx.index);
        s.sim.run_until(sim::SimTime::seconds(100));
        return s.digest();
      });
  const double branched_ms = branched_t.ms();

  bool branches_identical = naive.failures == 0 && branched.failures == 0;
  for (std::size_t k = 0; k < kBranches; ++k) {
    branches_identical = branches_identical &&
                         naive.replications[k].payload ==
                             branched.replications[k].payload;
  }
  all_identical = all_identical && branches_identical;
  const double fanout_speedup = branched_ms > 0 ? naive_ms / branched_ms : 0.0;
  row("");
  row("what-if fan-out: %zu branches of a %zu-asset scenario at t=0.9T",
      kBranches, kBranchPopulation);
  row("  naive re-sim from t=0: %.1f ms   branched from snapshot: %.1f ms   "
      "speedup: %.2fx   branch==naive digests: %s",
      naive_ms, branched_ms, fanout_speedup,
      branches_identical ? "yes" : "NO — DIVERGED");

  // ---- 4. Campaign resume through the snapshot store -------------------
  const std::string store_dir = "BENCH_checkpoint_store.tmp";
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  const auto resume_body = [](sim::ReplicationContext& ctx) {
    Scenario s(ctx.seed, 48);
    s.sim.run_until(sim::SimTime::seconds(60));
    ctx.metrics.merge_from(s.net.metrics());
    return s.digest();
  };
  const auto encode = [](const std::uint64_t& d) { return std::to_string(d); };
  const auto decode = [](std::string_view s) {
    return static_cast<std::uint64_t>(std::stoull(std::string(s)));
  };
  double first_ms = 0, resume_ms = 0;
  std::size_t resumed = 0;
  bool resume_identical = true;
  {
    sim::SnapshotStore store(store_dir);
    WallTimer t;
    const auto first = fan.run_resumable<std::uint64_t>(seeds, resume_body,
                                                        store, encode, decode);
    first_ms = t.ms();
    sim::SnapshotStore reopened(store_dir);
    WallTimer t2;
    const auto second = fan.run_resumable<std::uint64_t>(
        seeds, resume_body, reopened, encode, decode);
    resume_ms = t2.ms();
    resumed = second.resumed;
    resume_identical = second.resumed == seeds.size() &&
                       second.merged.digest() == first.merged.digest();
  }
  std::filesystem::remove_all(store_dir, ec);
  all_identical = all_identical && resume_identical;
  row("");
  row("campaign resume: first run %.1f ms, resumed run %.1f ms (%zu/%zu "
      "replications replayed from the store, digests %s)",
      first_ms, resume_ms, resumed, seeds.size(),
      resume_identical ? "identical" : "DIVERGED");

  row("");
  row("all digests identical: %s",
      all_identical ? "yes" : "NO — DETERMINISM VIOLATION");

  // ---- JSON -----------------------------------------------------------
  write_artifact("BENCH_checkpoint.json", [&](trace::JsonWriter& w) {
    w.key("digest_identity").boolean(all_identical);
    w.key("ladder").begin_array();
    for (const auto& r : ladder) {
      w.begin_object().key("population").integer(r.population);
      w.key("save_ms").number(r.save_ms, 3).key("restore_ms").number(r.restore_ms, 3);
      w.key("rewind_run_ms").number(r.rewind_run_ms, 3);
      w.key("identical").boolean(r.identical);
      w.key("store_identical").boolean(r.store_identical).end_object();
    }
    w.end_array();
    w.key("matrix").begin_object().key("seeds").integer(seeds.size());
    w.key("workers").begin_array().integer(1).integer(2).integer(8).end_array();
    w.key("all_identical").boolean(matrix_identical);
    w.key("merged_digest").hex(matrix_reference, 16).end_object();
    w.key("fanout").begin_object().key("branches").integer(kBranches);
    w.key("population").integer(kBranchPopulation);
    w.key("naive_ms").number(naive_ms, 1).key("branched_ms").number(branched_ms, 1);
    w.key("speedup").number(fanout_speedup, 3);
    w.key("identical").boolean(branches_identical).end_object();
    w.key("resume").begin_object().key("replications").integer(seeds.size());
    w.key("first_run_ms").number(first_ms, 1).key("resume_ms").number(resume_ms, 1);
    w.key("resumed").integer(resumed).key("identical").boolean(resume_identical);
    w.end_object();
  });
  return all_identical ? 0 : 1;
}
