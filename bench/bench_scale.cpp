// Management-plane scalability: nodes x tasks, indexed vs reference scans.
//
// The paper fixes 6 nodes and one AAW task; this bench grows the episode
// to 256 nodes x 32 tasks and measures what the management plane costs as
// it scales. Each cell runs the same multi-task episode twice on one
// build: once with the cluster's utilization min-index (the production
// path) and once routed through the seed's linear scans
// (Cluster::setUtilizationIndexEnabled(false)) — the bench_sim_kernel
// idiom, so before/after is one run. Both modes must make *identical*
// decisions; the bench cross-checks every per-task metric bit-for-bit and
// fails loudly on any divergence.
//
// Emits bench_out/scale.csv; the committed BENCH_scale.json records the
// headline 256x32 before/after. `--smoke` runs the 16-node short-horizon
// subset used by CI.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/scenario.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "core/ledger.hpp"
#include "core/manager.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

namespace {

struct CellConfig {
  std::size_t nodes = 6;
  std::size_t tasks = 1;
  std::uint64_t periods = 12;
  double max_tracks = 14000.0;
  double min_frac = 0.5;
  std::uint64_t ramp_periods = 6;
  experiments::AlgorithmKind algorithm =
      experiments::AlgorithmKind::kPredictive;
  bool use_index = true;
};

struct CellResult {
  double wall_ms = 0.0;
  // Decision-dependent aggregates, compared bit-for-bit across modes.
  double missed_pct = 0.0;
  double avg_replicas = 0.0;
  std::uint64_t replicate_actions = 0;
  std::uint64_t shutdown_actions = 0;
  std::uint64_t allocation_failures = 0;
};

/// One multi-task episode (the runMultiTaskEpisode wiring, inlined so the
/// cluster's index toggle is reachable), timed end to end: release through
/// drain, managers included.
CellResult runCell(const task::TaskSpec& spec,
                   const core::PredictiveModels& models,
                   const CellConfig& cfg) {
  apps::ScenarioConfig scfg;
  scfg.node_count = cfg.nodes;
  apps::Scenario scenario(scfg);
  scenario.cluster().setUtilizationIndexEnabled(cfg.use_index);

  // A fast triangular oscillation between min_frac*max and max: replica
  // sets stay large but keep growing and shedding every few periods, which
  // is the regime the management plane actually has to survive at scale —
  // a saturated cluster stops allocating and hides the per-decision cost.
  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(cfg.max_tracks * cfg.min_frac);
  ramp.max_workload = DataSize::tracks(cfg.max_tracks);
  ramp.ramp_periods = cfg.ramp_periods;
  const workload::Triangular pattern(ramp);

  core::WorkloadLedger ledger;
  std::vector<task::TaskSpec> specs(cfg.tasks, spec);
  std::vector<std::unique_ptr<core::ResourceManager>> managers;
  managers.reserve(cfg.tasks);
  for (std::size_t t = 0; t < cfg.tasks; ++t) {
    specs[t].name = spec.name + "#" + std::to_string(t + 1);
    // Staggered primaries and phase-shifted peaks, as in multitask.cpp.
    std::vector<ProcessorId> homes;
    for (std::size_t s = 0; s < spec.stageCount(); ++s) {
      homes.push_back(ProcessorId{
          static_cast<std::uint32_t>((s + 2 * t) % cfg.nodes)});
    }
    std::unique_ptr<core::Allocator> allocator;
    if (cfg.algorithm == experiments::AlgorithmKind::kPredictive) {
      allocator = std::make_unique<core::PredictiveAllocator>(models);
    } else {
      allocator = std::make_unique<core::NonPredictiveAllocator>();
    }
    core::ManagerConfig mgr_cfg;
    mgr_cfg.sample_cluster = (t == 0);
    const std::uint64_t phase = t * 5;
    managers.push_back(std::make_unique<core::ResourceManager>(
        scenario.runtime(), specs[t], task::Placement(homes),
        [&pattern, phase](std::uint64_t c) { return pattern.at(c + phase); },
        std::move(allocator), models, mgr_cfg,
        scenario.streams().get("exec-noise", t)));
    managers.back()->attachLedger(ledger);
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (auto& m : managers) {
    m->start(scenario.sim().now());
  }
  scenario.runFor(spec.period * static_cast<double>(cfg.periods));
  for (auto& m : managers) {
    m->stop();
  }
  scenario.runFor(spec.period * 3.0);
  const auto t1 = std::chrono::steady_clock::now();

  CellResult out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  double missed = 0.0;
  double replicas = 0.0;
  for (const auto& m : managers) {
    const core::EpisodeMetrics& em = m->metrics();
    missed += em.missedRatio() * 100.0;
    replicas += em.replicas_per_subtask.mean();
    out.replicate_actions += em.replicate_actions;
    out.shutdown_actions += em.shutdown_actions;
    out.allocation_failures += em.allocation_failures;
  }
  out.missed_pct = missed / static_cast<double>(cfg.tasks);
  out.avg_replicas = replicas / static_cast<double>(cfg.tasks);
  return out;
}

bool sameDecisions(const CellResult& a, const CellResult& b) {
  return a.missed_pct == b.missed_pct && a.avg_replicas == b.avg_replicas &&
         a.replicate_actions == b.replicate_actions &&
         a.shutdown_actions == b.shutdown_actions &&
         a.allocation_failures == b.allocation_failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::int64_t periods = 12;
  std::int64_t repeat = 1;
  double max_tracks = 14000.0;
  double min_frac = 0.5;
  std::int64_t ramp_periods = 6;
  std::int64_t only_nodes = 0;
  std::int64_t only_tasks = 0;
  bool xl = false;
  ArgParser parser("bench_scale",
                   "Management-plane scalability: indexed vs scan episode "
                   "wall-clock over nodes x tasks");
  parser.addFlag("smoke", "CI subset: 16 nodes, {1, 8} tasks, 12 periods",
                 &smoke);
  parser.addFlag("xl", "add the 1024-node / 128-task extremes to the grids",
                 &xl);
  parser.addInt("periods", "episode length in task periods", &periods);
  parser.addInt("repeat", "timing repetitions per cell (best-of)", &repeat);
  parser.addDouble("max-tracks", "triangular-ramp peak workload", &max_tracks);
  parser.addDouble("min-frac", "ramp floor as a fraction of the peak",
                   &min_frac);
  parser.addInt("ramp", "triangular ramp length in periods", &ramp_periods);
  parser.addInt("nodes", "run a single node count instead of the grid",
                &only_nodes);
  parser.addInt("tasks", "run a single task count instead of the grid",
                &only_tasks);
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }
  const auto& spec = bench::aawSpec();
  const auto& fitted = bench::fittedModels();

  std::vector<std::size_t> node_grid{16, 64, 256};
  std::vector<std::size_t> task_grid{1, 8, 32};
  if (xl) {
    node_grid.push_back(1024);
    task_grid.push_back(128);
  }
  if (smoke) {
    node_grid = {16};
    task_grid = {1, 8};
    periods = 12;
  }
  if (only_nodes > 0) {
    node_grid = {static_cast<std::size_t>(only_nodes)};
  }
  if (only_tasks > 0) {
    task_grid = {static_cast<std::size_t>(only_tasks)};
  }

  printBanner(std::cout,
              "Management-plane scale: episode wall-clock, utilization "
              "index vs reference scans (identical decisions)");
  Table t({"nodes", "tasks", "algorithm", "scan ms", "indexed ms",
           "speedup", "missed %", "avg replicas"},
          2);

  bool decisions_ok = true;
  double headline_speedup = 0.0;
  for (const std::size_t nodes : node_grid) {
    for (const std::size_t tasks : task_grid) {
      for (const auto algorithm :
           {experiments::AlgorithmKind::kPredictive,
            experiments::AlgorithmKind::kNonPredictive}) {
        CellConfig cfg;
        cfg.nodes = nodes;
        cfg.tasks = tasks;
        cfg.periods = static_cast<std::uint64_t>(periods);
        cfg.max_tracks = max_tracks;
        cfg.min_frac = min_frac;
        cfg.ramp_periods = static_cast<std::uint64_t>(ramp_periods);
        cfg.algorithm = algorithm;

        CellResult scan;
        CellResult indexed;
        for (std::int64_t r = 0; r < repeat; ++r) {
          cfg.use_index = false;
          const CellResult s = runCell(spec, fitted.models, cfg);
          cfg.use_index = true;
          const CellResult i = runCell(spec, fitted.models, cfg);
          if (r == 0 || s.wall_ms < scan.wall_ms) {
            scan = s;
          }
          if (r == 0 || i.wall_ms < indexed.wall_ms) {
            indexed = i;
          }
        }
        if (!sameDecisions(scan, indexed)) {
          decisions_ok = false;
          std::cout << "DECISION MISMATCH at " << nodes << " nodes x "
                    << tasks << " tasks ("
                    << experiments::algorithmName(algorithm) << ")\n";
        }
        const double speedup = scan.wall_ms / indexed.wall_ms;
        if (nodes == 256 && tasks == 32 &&
            algorithm == experiments::AlgorithmKind::kPredictive) {
          headline_speedup = speedup;
        }
        t.addRow({static_cast<long long>(nodes),
                  static_cast<long long>(tasks),
                  experiments::algorithmName(algorithm), scan.wall_ms,
                  indexed.wall_ms, speedup, indexed.missed_pct,
                  indexed.avg_replicas});
      }
    }
  }
  t.print(std::cout);

  std::filesystem::create_directories("bench_out");
  if (t.writeCsv("bench_out/scale.csv")) {
    std::cout << "(series written to bench_out/scale.csv)\n";
  }

  if (!decisions_ok) {
    std::cout << "\nFAILED: indexed and scan modes diverged.\n";
    return 1;
  }
  std::cout << "\nDecision cross-check PASSED: indexed and scan modes "
               "produced identical episodes.\n";
  if (headline_speedup > 0.0) {
    std::cout << "Headline (256 nodes x 32 tasks, predictive): "
              << std::fixed << std::setprecision(2) << headline_speedup
              << "x\n";
  }
  return 0;
}
