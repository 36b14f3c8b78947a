// Extension — heterogeneous task set.
//
// The paper's model is a set of periodic tasks with different structures
// and periods; its evaluation uses one. Here the three DynBench-style
// paths — AAW (1 s), Engage (500 ms), Surveillance (2 s) — run together on
// the 6-node cluster, each with its own fitted models and workload shape,
// all posting into the shared eq.-5 ledger.
#include <iostream>

#include "bench_util.hpp"
#include "experiments/multitask.hpp"

using namespace rtdrm;

int main() {
  const task::TaskSpec aaw = apps::makeAawTaskSpec();
  const task::TaskSpec engage = apps::makeEngagePathSpec();
  const task::TaskSpec surveil = apps::makeSurveillancePathSpec();

  std::cout << "[fitting models for the three task structures...]\n";
  experiments::ModelFitConfig fit_cfg = experiments::defaultModelFitConfig();
  fit_cfg.exec.samples_per_point = 4;
  const auto f_aaw = experiments::fitAllModels(aaw, fit_cfg);
  const auto f_engage = experiments::fitAllModels(engage, fit_cfg);
  const auto f_surveil = experiments::fitAllModels(surveil, fit_cfg);

  // Workloads: AAW rides a triangle, Engage bursts, Surveillance is flat.
  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(500.0);
  ramp.max_workload = DataSize::tracks(7000.0);
  ramp.ramp_periods = 30;
  const workload::Triangular aaw_load(ramp);
  const workload::Burst engage_load(DataSize::tracks(300.0),
                                    DataSize::tracks(4000.0), 60, 20);
  const workload::Constant surveil_load(DataSize::tracks(2500.0));

  const std::vector<experiments::TaskSetMember> members{
      {engage, &engage_load, &f_engage.models, 0},  // fastest first
      {aaw, &aaw_load, &f_aaw.models, 0},
      {surveil, &surveil_load, &f_surveil.models, 0},
  };

  printBanner(std::cout,
              "Heterogeneous task set: Engage (0.5 s) + AAW (1 s) + "
              "Surveillance (2 s), 90 s horizon");
  Table t({"task", "algorithm", "missed %", "avg replicas", "combined C"},
          2);
  double pred_combined = 0.0;
  double nonp_combined = 0.0;
  double worst_missed = 0.0;
  for (const auto kind : {experiments::AlgorithmKind::kPredictive,
                          experiments::AlgorithmKind::kNonPredictive}) {
    experiments::EpisodeConfig cfg;
    const auto r = experiments::runTaskSetEpisode(
        members, kind, cfg, SimDuration::seconds(90.0));
    const char* names[] = {"Engage", "AAW", "Surveil"};
    for (std::size_t i = 0; i < r.tasks.size(); ++i) {
      t.addRow({std::string(names[i]), experiments::algorithmName(kind),
                r.tasks[i].missed_pct, r.tasks[i].avg_replicas,
                r.tasks[i].combined});
      worst_missed = std::max(worst_missed, r.tasks[i].missed_pct);
    }
    t.addRow({std::string("(mean)"), experiments::algorithmName(kind),
              r.missed_pct, r.avg_replicas, r.combined});
    if (kind == experiments::AlgorithmKind::kPredictive) {
      pred_combined = r.combined;
    } else {
      nonp_combined = r.combined;
    }
  }
  t.print(std::cout);
  if (t.writeCsv("ext_heterogeneous_taskset.csv")) {
    std::cout << "(series written to ext_heterogeneous_taskset.csv)\n";
  }

  const bool ok = worst_missed < 40.0 && pred_combined <= nonp_combined + 0.05;
  std::cout << (ok ? "\nShape check PASSED: the set is schedulable and the "
                     "predictive allocator keeps its edge across "
                     "heterogeneous tasks.\n"
                   : "\nShape check FAILED.\n");
  return ok ? 0 : 1;
}
