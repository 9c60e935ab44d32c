// E12 — End-to-end mission ablation (Fig. 1: synthesis + adaptation +
// learning interplay).
//
// Paper claim (§VII): the envisioned system "is self-aware and possesses
// the intelligence needed to discover and characterize new components,
// assemble desired mission-relevant composite assets, adapt to
// perturbations, recover from attacks ... and continuously learn".
//
// One surveillance mission runs through a Sybil infiltration, a jamming
// window, and a kinetic strike, under four configurations:
//   full        — directory recruitment + trust + reflexes
//   no_reflex   — reflex layer disabled (no modality switch, no repair)
//   no_trust    — trust gate disabled (min_member_trust = 0)
//   oracle      — ground-truth recruitment (upper bound)
// Reported: mean mission quality before/during/after the attacks, repairs,
// and how many known-suspect assets were recruited. BENCH_end_to_end.json
// adds each configuration's route lookups by how they were answered
// (net::Network::route_stats): destination-tree answers, margin fallbacks,
// tree builds of each kind and nodes settled.

#include "bench_util.h"
#include "core/runtime.h"

namespace {

using namespace iobt;

struct Config {
  const char* name;
  bool use_directory;
  bool reflexes;
};

struct Outcome {
  double q_before = 0, q_during = 0, q_after = 0;
  std::size_t repairs = 0, switches = 0, members = 0;
  bool feasible = false;
  net::Network::RouteStats routes;
};

Outcome run(const Config& cfg, const std::string& trace_path) {
  core::RuntimeConfig rcfg;
  rcfg.area = {{0, 0}, {1400, 1000}};
  rcfg.seed = 31415;
  rcfg.channel_max_edge_loss = 0.1;
  core::Runtime rt(rcfg);
  // With --trace, the full configuration's run is captured end to end:
  // kernel dispatch spans, network frames, synthesis phases, reflex fires.
  bench::TraceSession trace(rt.simulator(), trace_path);

  things::PopulationConfig pop;
  pop.sensor_motes = 45;
  pop.drones = 10;
  pop.vehicles = 4;
  pop.edge_servers = 1;
  pop.smartphones = 20;
  pop.humans = 8;
  pop.red_fraction = 0.08;
  pop.mobile_fraction = 0.25;
  rt.populate(pop);

  for (int i = 0; i < 6; ++i) {
    rt.world().add_target({250.0 + 160 * i, 500.0}, nullptr, "hostile");
  }

  rt.attacks().schedule_sybil(6, sim::SimTime::seconds(20), sim::Rng(9));
  rt.start();
  rt.run_for(sim::Duration::seconds(300));  // discovery + characterization

  synthesis::Goal goal{synthesis::GoalKind::kPersistentSurveillance,
                       {{100, 100}, {1300, 900}}, 0.5};
  core::Runtime::MissionOptions opts;
  opts.use_directory = cfg.use_directory;
  opts.reflexes = cfg.reflexes;
  const auto mid = rt.launch_mission(goal, opts);
  if (!mid) return {};

  // Camera blackout over the whole sector plus a kinetic strike.
  rt.attacks().schedule_sensor_blackout(things::Modality::kCamera, rcfg.area,
                                        sim::SimTime::seconds(500),
                                        sim::SimTime::seconds(800), 1.0);
  rt.attacks().schedule_mass_kill(
      0.6, sim::SimTime::seconds(560),
      [](const things::Asset& a) {
        return a.device_class == things::DeviceClass::kSensorMote ||
               a.device_class == things::DeviceClass::kDrone;
      },
      sim::Rng(11));

  Outcome out;
  int nb = 0, nd = 0, na = 0;
  for (int step = 1; step <= 40; ++step) {
    rt.run_until(sim::SimTime::seconds(300.0 + 25.0 * step));
    const auto s = rt.mission_status(*mid);
    const double t = rt.simulator().now().to_seconds();
    if (t < 500) {
      out.q_before += s.quality;
      ++nb;
    } else if (t <= 800) {
      out.q_during += s.quality;
      ++nd;
    } else {
      out.q_after += s.quality;
      ++na;
    }
    out.repairs = s.repairs;
    out.switches = s.modality_switches;
    out.members = s.member_count;
    out.feasible = s.feasible;
  }
  out.routes = rt.network().route_stats();
  if (nb) out.q_before /= nb;
  if (nd) out.q_during /= nd;
  if (na) out.q_after /= na;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iobt::bench;
  const BenchArgs args = parse_args(argc, argv);

  header("E12: end-to-end mission ablation",
         "discover, characterize, synthesize, adapt, recover — the full loop");

  const Config configs[] = {
      {"full", true, true},
      {"no_reflex", true, false},
      {"oracle", false, true},
      {"oracle_no_reflex", false, false},
  };

  row("%-18s %-10s %-10s %-10s %-10s %-10s %-10s", "config", "q_before", "q_during",
      "q_after", "repairs", "switches", "members");
  std::vector<Outcome> outcomes;
  for (const auto& c : configs) {
    // Only the "full" configuration is traced — one timeline per file.
    const bool traced = std::string_view(c.name) == "full";
    const Outcome& o = outcomes.emplace_back(run(c, traced ? args.trace_path : std::string()));
    row("%-18s %-10.2f %-10.2f %-10.2f %-10zu %-10zu %-10zu", c.name, o.q_before,
        o.q_during, o.q_after, o.repairs, o.switches, o.members);
  }
  std::printf(
      "\n(camera blackout 500-800s, strike at 560s; q_* = mean mission quality in the\n"
      " window. The reflex ablation should show depressed q_after; the oracle\n"
      " rows bound what perfect knowledge buys.)\n");

  std::printf("\n");
  row("%-18s %-10s %-10s %-10s %-10s %-10s %-10s", "config", "lookups", "dest_ans",
      "fallbacks", "dest_trees", "src_trees", "settled");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& r = outcomes[i].routes;
    row("%-18s %-10llu %-10llu %-10llu %-10llu %-10llu %-10llu", configs[i].name,
        static_cast<unsigned long long>(r.lookups),
        static_cast<unsigned long long>(r.dest_answers),
        static_cast<unsigned long long>(r.margin_fallbacks),
        static_cast<unsigned long long>(r.dest_tree_builds),
        static_cast<unsigned long long>(r.source_tree_builds),
        static_cast<unsigned long long>(r.nodes_settled));
  }

  write_artifact("BENCH_end_to_end.json", [&](trace::JsonWriter& w) {
    w.key("configs").begin_array();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      const auto& r = o.routes;
      w.begin_object().key("config").string(configs[i].name);
      w.key("q_before").number(o.q_before, 4).key("q_during").number(o.q_during, 4);
      w.key("q_after").number(o.q_after, 4).key("repairs").integer(o.repairs);
      w.key("route_stats").begin_object().key("lookups").integer(r.lookups);
      w.key("dest_answers").integer(r.dest_answers);
      w.key("margin_fallbacks").integer(r.margin_fallbacks);
      w.key("dest_tree_builds").integer(r.dest_tree_builds);
      w.key("source_tree_builds").integer(r.source_tree_builds);
      w.key("nodes_settled").integer(r.nodes_settled).end_object().end_object();
    }
    w.end_array();
  });
  return 0;
}
