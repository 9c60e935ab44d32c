// D1 — Percolation-style dissemination over multi-layer IoBT networks.
//
// Drives the canonical dissem scenario matrix ({layer configs} x {mobility}
// x {attack campaign} x {attack intensity}) through two harness modes:
//
//   default    Reach-vs-attack-intensity curves. Every waypoint-mobility
//              cell of the matrix (2 layer configs x 5 campaigns x 4
//              intensities) runs 3 replications on a ParallelRunner, and
//              the WHOLE sweep repeats under worker pools {1, 2, 8}: all
//              per-replication outcome digests must be bit-identical
//              across pool sizes. Emits BENCH_dissemination.json; exits
//              nonzero on any divergence.
//
//   --fuzz=N   CI fuzz slice: a deterministic pseudo-random sample of N
//              distinct matrix cells (vary the subset with --salt=S), each
//              run twice serially at a 60 s horizon and digest-compared.
//              A crash, throw, or determinism break prints a one-line
//              serial repro (--cell=<index>) and exits nonzero. The CI
//              sanitizer matrix runs this mode under ASan+UBSan.
//
//   --cell=I   Reproduce one matrix cell serially and verbosely — the
//              repro target printed by a failing fuzz run.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "dissem/scenario.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "sim/scenario_matrix.h"

namespace {

using namespace iobt;

/// Base seed for the canonical matrix: fixed so a --cell repro names the
/// same scenario in every invocation, on every machine.
constexpr std::uint64_t kMatrixSeed = 20260807;
constexpr std::size_t kRepsPerCell = 3;
constexpr double kFuzzHorizonS = 60.0;

struct DissemArgs {
  std::size_t fuzz = 0;        // 0 = curve mode
  std::uint64_t salt = 1;      // fuzz slice selector
  long cell = -1;              // >= 0 = single-cell repro mode
};

DissemArgs parse_dissem_args(int argc, char** argv) {
  DissemArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--fuzz=", 0) == 0) {
      out.fuzz = static_cast<std::size_t>(std::strtoull(arg.data() + 7, nullptr, 10));
    } else if (arg.rfind("--salt=", 0) == 0) {
      out.salt = std::strtoull(arg.data() + 7, nullptr, 10);
    } else if (arg.rfind("--cell=", 0) == 0) {
      out.cell = std::strtol(arg.data() + 7, nullptr, 10);
    }
  }
  return out;
}

/// Runs one matrix cell end-to-end and returns its outcome.
dissem::DissemOutcome run_cell(const sim::ScenarioCell& cell, double horizon_s,
                               std::uint64_t seed) {
  dissem::DissemSpec spec = dissem::spec_for_cell(cell);
  spec.horizon_s = horizon_s;
  return dissem::run_dissemination(spec, seed);
}

// ----------------------------------------------------------- Fuzz mode ----

int run_fuzz(const DissemArgs& args) {
  using namespace iobt::bench;
  const sim::ScenarioMatrix matrix = dissem::dissem_matrix(kMatrixSeed);
  const auto slice = matrix.slice(args.fuzz, args.salt);
  std::printf("fuzz: %zu/%zu cells (salt=%llu, horizon=%.0fs)\n", slice.size(),
              matrix.cell_count(), static_cast<unsigned long long>(args.salt),
              kFuzzHorizonS);
  std::size_t failures = 0;
  for (const sim::ScenarioCell& cell : slice) {
    std::string verdict = "ok";
    try {
      const dissem::DissemOutcome a = run_cell(cell, kFuzzHorizonS, cell.seed);
      const dissem::DissemOutcome b = run_cell(cell, kFuzzHorizonS, cell.seed);
      if (a.digest != b.digest) verdict = "NONDETERMINISTIC";
      else if (a.informed == 0) verdict = "EPIDEMIC NEVER STARTED";
    } catch (const std::exception& e) {
      verdict = std::string("THREW: ") + e.what();
    } catch (...) {
      verdict = "THREW: non-std exception";
    }
    const bool ok = verdict == "ok";
    failures += ok ? 0 : 1;
    std::printf("  cell %3zu  %-60s %s\n", cell.index, cell.name.c_str(),
                verdict.c_str());
    if (!ok) {
      std::printf("    repro: bench_dissemination --cell=%zu\n", cell.index);
    }
  }
  std::printf("fuzz verdict: %zu/%zu clean\n", slice.size() - failures,
              slice.size());
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------- Single-cell repro ----

int run_one_cell(long index) {
  const sim::ScenarioMatrix matrix = dissem::dissem_matrix(kMatrixSeed);
  if (index < 0 || static_cast<std::size_t>(index) >= matrix.cell_count()) {
    std::printf("cell index out of range (matrix has %zu cells)\n",
                matrix.cell_count());
    return 1;
  }
  const sim::ScenarioCell cell = matrix.cell(static_cast<std::size_t>(index));
  std::printf("cell %zu: %s (seed %llu)\n", cell.index, cell.name.c_str(),
              static_cast<unsigned long long>(cell.seed));
  const dissem::DissemOutcome o = run_cell(cell, kFuzzHorizonS, cell.seed);
  std::printf(
      "nodes=%zu informed=%zu live=%zu reach=%.3f reach_live=%.3f "
      "t50=%.2fs t90=%.2fs promotions=%zu digest=0x%016llx\n",
      o.nodes, o.informed, o.live, o.reach, o.reach_live, o.t50_s, o.t90_s,
      o.promotions, static_cast<unsigned long long>(o.digest));
  return 0;
}

// ----------------------------------------------------------- Curve mode ----

/// One (layer config, campaign, intensity) point, aggregated over its
/// replications.
struct CurvePoint {
  std::size_t cell_index = 0;
  double intensity = 0.0;
  double reach = 0.0;
  double reach_live = 0.0;
  double t50_s = 0.0;
  double t90_s = 0.0;
  std::size_t promotions = 0;
  std::uint64_t digest = 0;  ///< fnv-mix of the replication digests
};

struct Curve {
  std::string config;
  std::string attack;
  std::vector<CurvePoint> points;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace iobt::bench;
  const DissemArgs args = parse_dissem_args(argc, argv);
  if (args.cell >= 0) return run_one_cell(args.cell);
  if (args.fuzz > 0) return run_fuzz(args);

  header("D1: dissemination reach under layered attack campaigns",
         "alert percolation across a multi-layer IoBT degrades gracefully "
         "with attack intensity when gateways reconfigure");

  // The curve sweep: every waypoint-mobility cell of the canonical matrix.
  const sim::ScenarioMatrix matrix = dissem::dissem_matrix(kMatrixSeed);
  std::vector<sim::ScenarioCell> cells;
  for (const sim::ScenarioCell& c : matrix.all_cells()) {
    if (matrix.axes()[1].variants[c.choice[1]] == "waypoint") cells.push_back(c);
  }

  // Flatten to jobs (cell x replication); the seed list IS the job list,
  // so ParallelRunner's seed-ordered aggregation keeps job order stable
  // for every pool size.
  std::vector<std::uint64_t> job_seeds;
  for (const sim::ScenarioCell& c : cells) {
    for (std::size_t r = 0; r < kRepsPerCell; ++r) job_seeds.push_back(c.seed + r);
  }
  const auto body = [&cells](sim::ReplicationContext& ctx) {
    const sim::ScenarioCell& cell = cells[ctx.index / kRepsPerCell];
    dissem::DissemSpec spec = dissem::spec_for_cell(cell);
    return dissem::run_dissemination(spec, ctx.seed);
  };

  // Worker-count identity: the full sweep under pools {1, 2, 8} must
  // produce bit-identical per-job outcome digests.
  bool all_identical = true;
  std::vector<std::uint64_t> reference_digests;
  std::vector<dissem::DissemOutcome> outcomes;
  double sweep_ms = 0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const sim::ParallelRunner runner(workers);
    WallTimer t;
    const auto outcome = runner.run<dissem::DissemOutcome>(job_seeds, body);
    const double ms = t.ms();
    if (outcome.failures != 0) {
      std::printf("FATAL: %zu replications failed\n", outcome.failures);
      return 1;
    }
    std::vector<std::uint64_t> digests;
    for (const auto& r : outcome.replications) digests.push_back(r.payload.digest);
    if (workers == 1) {
      reference_digests = digests;
      for (const auto& r : outcome.replications) outcomes.push_back(r.payload);
      sweep_ms = ms;
    } else if (digests != reference_digests) {
      all_identical = false;
    }
    row("sweep: %zu jobs, workers=%zu, %.1f ms%s", job_seeds.size(), workers,
        ms,
        workers == 1 ? ""
                     : (digests == reference_digests ? ", digests identical"
                                                     : ", DIGESTS DIVERGED"));
  }

  // Aggregate jobs back into (config, attack) curves over intensity.
  std::vector<Curve> curves;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const sim::ScenarioCell& cell = cells[ci];
    const std::string config = matrix.axes()[0].variants[cell.choice[0]];
    const std::string attack = matrix.axes()[2].variants[cell.choice[2]];
    Curve* curve = nullptr;
    for (Curve& c : curves) {
      if (c.config == config && c.attack == attack) curve = &c;
    }
    if (curve == nullptr) {
      curves.push_back({config, attack, {}});
      curve = &curves.back();
    }
    CurvePoint p;
    p.cell_index = cell.index;
    p.intensity = dissem::spec_for_cell(cell).intensity;
    p.digest = 0xcbf29ce484222325ULL;
    // Time-to-fraction is -1 when the threshold was never reached; those
    // replications are excluded from the mean (a point where NO
    // replication reached the threshold reports -1).
    std::size_t reached50 = 0, reached90 = 0;
    for (std::size_t r = 0; r < kRepsPerCell; ++r) {
      const dissem::DissemOutcome& o = outcomes[ci * kRepsPerCell + r];
      p.reach += o.reach / kRepsPerCell;
      p.reach_live += o.reach_live / kRepsPerCell;
      if (o.t50_s >= 0) { p.t50_s += o.t50_s; ++reached50; }
      if (o.t90_s >= 0) { p.t90_s += o.t90_s; ++reached90; }
      p.promotions += o.promotions;
      p.digest ^= o.digest;
      p.digest *= 0x100000001b3ULL;
    }
    p.t50_s = reached50 > 0 ? p.t50_s / static_cast<double>(reached50) : -1.0;
    p.t90_s = reached90 > 0 ? p.t90_s / static_cast<double>(reached90) : -1.0;
    curve->points.push_back(p);
  }

  row("");
  row("%-24s %-14s %-10s %-8s %-11s %-8s %-8s %-10s", "config", "attack",
      "intensity", "reach", "reach_live", "t50_s", "t90_s", "promotions");
  for (const Curve& c : curves) {
    for (const CurvePoint& p : c.points) {
      row("%-24s %-14s %-10.1f %-8.3f %-11.3f %-8.2f %-8.2f %-10zu",
          c.config.c_str(), c.attack.c_str(), p.intensity, p.reach,
          p.reach_live, p.t50_s, p.t90_s, p.promotions);
    }
  }
  row("");
  row("all digests identical across workers {1,2,8}: %s",
      all_identical ? "yes" : "NO — DETERMINISM VIOLATION");

  // ---- JSON -----------------------------------------------------------
  write_artifact("BENCH_dissemination.json", [&](trace::JsonWriter& w) {
    w.key("digest_identity").boolean(all_identical);
    w.key("workers").begin_array().integer(1).integer(2).integer(8).end_array();
    w.key("matrix_cells").integer(matrix.cell_count());
    w.key("jobs").integer(job_seeds.size());
    w.key("reps_per_cell").integer(kRepsPerCell);
    w.key("sweep_ms").number(sweep_ms, 1);
    w.key("curves").begin_array();
    for (const Curve& c : curves) {
      w.begin_object().key("config").string(c.config).key("attack").string(c.attack);
      w.key("points").begin_array();
      for (const CurvePoint& p : c.points) {
        w.begin_object().key("cell").integer(p.cell_index);
        w.key("intensity").number(p.intensity, 1).key("reach").number(p.reach, 4);
        w.key("reach_live").number(p.reach_live, 4);
        w.key("t50_s").number(p.t50_s, 2).key("t90_s").number(p.t90_s, 2);
        w.key("promotions").integer(p.promotions);
        w.key("digest").hex(p.digest, 16, "0x").end_object();
      }
      w.end_array().end_object();
    }
    w.end_array();
  });
  return all_identical ? 0 : 1;
}
