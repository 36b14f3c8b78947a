// Ablations over the design choices DESIGN.md §6 calls out:
//   1. slack reserve sl (paper: 20% of the subtask deadline),
//   2. shutdown threshold + hysteresis (paper: unspecified "very high"),
//   3. two-stage vs joint regression fit,
//   4. clock-sync quality and measured- vs true-latency monitoring,
//   5. the non-predictive utilization threshold UT.
// All runs use the triangular pattern at max workload 10,000 tracks.
#include <iostream>

#include "bench_util.hpp"

using namespace rtdrm;

namespace {

workload::RampParams ramp() {
  workload::RampParams p;
  p.min_workload = DataSize::tracks(500.0);
  p.max_workload = DataSize::tracks(10000.0);
  p.ramp_periods = 30;
  return p;
}

experiments::EpisodeConfig baseConfig() {
  experiments::EpisodeConfig cfg;
  cfg.periods = 72;
  return cfg;
}

void addRow(Table& t, const std::string& label,
            const experiments::EpisodeResult& r) {
  t.addRow({label, r.missed_pct, r.cpu_pct, r.net_pct, r.avg_replicas,
            r.combined});
}

}  // namespace

int main() {
  const auto& spec = bench::aawSpec();
  const auto& fitted = bench::fittedModels();
  const workload::Triangular pat(ramp());

  // 1. Slack reserve.
  {
    printBanner(std::cout,
                "Ablation 1: slack reserve sl (fraction of stage budget)");
    Table t({"sl", "missed %", "cpu %", "net %", "replicas", "combined"}, 2);
    for (double sl : {0.05, 0.1, 0.2, 0.3, 0.4}) {
      experiments::EpisodeConfig cfg = baseConfig();
      cfg.manager.monitor.slack_fraction = sl;
      addRow(t, std::to_string(sl),
             runEpisode(spec, pat, fitted.models,
                        experiments::AlgorithmKind::kPredictive, cfg));
    }
    t.print(std::cout);
  }

  // 2. Shutdown policy.
  {
    printBanner(std::cout,
                "Ablation 2: shutdown threshold x hysteresis (predictive)");
    Table t({"threshold", "hysteresis", "missed %", "replicas", "combined"},
            2);
    for (double th : {0.4, 0.6, 0.8}) {
      for (int h : {1, 3, 6}) {
        experiments::EpisodeConfig cfg = baseConfig();
        cfg.manager.monitor.shutdown_slack_fraction = th;
        cfg.manager.monitor.shutdown_hysteresis = h;
        const auto r = runEpisode(spec, pat, fitted.models,
                                  experiments::AlgorithmKind::kPredictive,
                                  cfg);
        t.addRow({th, static_cast<long long>(h), r.missed_pct,
                  r.avg_replicas, r.combined});
      }
    }
    t.print(std::cout);
  }

  // 3. Regression strategy: two-stage (paper) vs joint 6-term fit.
  {
    printBanner(std::cout, "Ablation 3: two-stage vs joint eq.-3 fit");
    Table t({"fit", "Filter R^2", "missed %", "replicas", "combined"}, 3);
    experiments::ModelFitConfig mc = experiments::defaultModelFitConfig();
    for (bool two_stage : {true, false}) {
      mc.two_stage = two_stage;
      const auto models = experiments::fitAllModels(spec, mc);
      const auto r = runEpisode(spec, pat, models.models,
                                experiments::AlgorithmKind::kPredictive,
                                baseConfig());
      t.addRow({std::string(two_stage ? "two-stage (paper)" : "joint"),
                models.exec_fits[apps::kFilterStage].diagnostics.r_squared,
                r.missed_pct, r.avg_replicas, r.combined});
    }
    t.print(std::cout);
  }

  // 4. Clock-sync quality and latency-measurement mode.
  {
    printBanner(std::cout,
                "Ablation 4: clock sync error vs monitor behaviour");
    Table t({"sync noise (ms)", "latency source", "missed %", "replicate "
             "actions", "combined"},
            3);
    for (double noise_ms : {0.05, 2.0, 20.0}) {
      for (bool measured : {true, false}) {
        experiments::EpisodeConfig cfg = baseConfig();
        cfg.scenario.clock_sync.estimate_noise =
            SimDuration::millis(noise_ms);
        cfg.manager.monitor.use_measured_latency = measured;
        const auto r = runEpisode(spec, pat, fitted.models,
                                  experiments::AlgorithmKind::kPredictive,
                                  cfg);
        t.addRow({noise_ms,
                  std::string(measured ? "local clocks" : "omniscient"),
                  r.missed_pct,
                  static_cast<long long>(r.metrics.replicate_actions),
                  r.combined});
      }
    }
    t.print(std::cout);
  }

  // 5. Non-predictive UT.
  {
    printBanner(std::cout, "Ablation 5: non-predictive threshold UT");
    Table t({"UT %", "missed %", "net %", "replicas", "combined"}, 2);
    for (double ut : {10.0, 20.0, 40.0, 60.0}) {
      experiments::EpisodeConfig cfg = baseConfig();
      cfg.nonpredictive_threshold = Utilization::percent(ut);
      const auto r = runEpisode(spec, pat, fitted.models,
                                experiments::AlgorithmKind::kNonPredictive,
                                cfg);
      t.addRow({ut, r.missed_pct, r.net_pct, r.avg_replicas, r.combined});
    }
    t.print(std::cout);
  }

  // 6. CPU scheduling policy of the nodes (Table 1 fixes RR @ 1 ms).
  {
    printBanner(std::cout, "Ablation 6: node CPU scheduling policy");
    Table t({"policy", "missed %", "replicas", "combined"}, 2);
    struct Row {
      const char* name;
      node::SchedPolicy policy;
      double quantum_ms;
    };
    for (const Row& row : {Row{"RR 1 ms (paper)",
                               node::SchedPolicy::kRoundRobin, 1.0},
                           Row{"RR 10 ms", node::SchedPolicy::kRoundRobin,
                               10.0},
                           Row{"FIFO", node::SchedPolicy::kFifo, 1.0}}) {
      experiments::EpisodeConfig cfg = baseConfig();
      cfg.scenario.cpu.policy = row.policy;
      cfg.scenario.cpu.quantum = SimDuration::millis(row.quantum_ms);
      const auto r = runEpisode(spec, pat, fitted.models,
                                experiments::AlgorithmKind::kPredictive,
                                cfg);
      t.addRow({std::string(row.name), r.missed_pct, r.avg_replicas,
                r.combined});
    }
    t.print(std::cout);
  }

  // 7. Predictive workload headroom (forecast at d * (1 + h)).
  {
    printBanner(std::cout, "Ablation 7: predictive forecast headroom");
    Table t({"headroom", "missed %", "replicas", "combined"}, 2);
    for (double h : {0.0, 0.1, 0.25, 0.5}) {
      workload::RampParams r2 = ramp();
      const workload::Triangular pattern(r2);
      experiments::EpisodeConfig cfg = baseConfig();
      // Build the episode by hand so we can configure the allocator.
      apps::Scenario scenario(cfg.scenario);
      std::vector<ProcessorId> homes;
      for (std::size_t s = 0; s < spec.stageCount(); ++s) {
        homes.push_back(ProcessorId{static_cast<std::uint32_t>(s % 6)});
      }
      core::ResourceManager manager(
          scenario.runtime(), spec, task::Placement(homes),
          [&pattern](std::uint64_t c) { return pattern.at(c); },
          std::make_unique<core::PredictiveAllocator>(
              fitted.models, core::PredictiveConfig{h}),
          fitted.models, cfg.manager, scenario.streams().get("exec-noise"));
      manager.start(scenario.sim().now());
      scenario.runFor(spec.period * 72.0);
      manager.stop();
      scenario.runFor(spec.period * 3.0);
      const auto& m = manager.metrics();
      t.addRow({h, m.missedRatio() * 100.0, m.replicas_per_subtask.mean(),
                m.combined(6)});
    }
    t.print(std::cout);
  }

  // 8. Shutdown victim selection under a mid-mission node hog: Fig. 6's
  // LIFO rule cannot evict a replica trapped on the hogged node; the
  // most-utilized selection can (whenever slack lets a shutdown fire).
  {
    printBanner(std::cout,
                "Ablation 8: shutdown selection with a node hogged at 90% "
                "from t=5s (triangular, max 13000 tracks)");
    Table t({"selection", "missed %", "avg replicas", "combined"}, 2);
    for (const auto sel : {core::ShutdownSelection::kLastAdded,
                           core::ShutdownSelection::kMostUtilized}) {
      workload::RampParams r2 = ramp();
      r2.max_workload = DataSize::tracks(13000.0);
      const workload::Triangular pattern(r2);
      experiments::EpisodeConfig cfg = baseConfig();
      cfg.manager.shutdown_selection = sel;
      experiments::Episode episode(cfg,
                                   experiments::AlgorithmKind::kPredictive,
                                   {{spec, &pattern, &fitted.models, 0}});
      apps::Scenario& scenario = episode.scenario();
      scenario.sim().scheduleAt(SimTime::seconds(5.0), [&scenario] {
        scenario.cluster().backgroundLoad(ProcessorId{5})
            .setTarget(Utilization::fraction(0.9));
      });
      episode.run();
      const experiments::EpisodeResult r = episode.result();
      t.addRow({std::string(sel == core::ShutdownSelection::kLastAdded
                                ? "last-added (paper Fig. 6)"
                                : "most-utilized (extension)"),
                r.missed_pct, r.avg_replicas, r.combined});
    }
    t.print(std::cout);
    std::cout
        << "Note: under sustained pressure the two selections coincide — a\n"
           "replica trapped on the hogged node keeps slack low, so Fig. 6's\n"
           "shutdown trigger (very high slack) never fires and no victim is\n"
           "selected at all. Evicting a hostile node needs a trigger the\n"
           "published monitor does not have (a migrate-on-persistent-miss\n"
           "rule plus a blocklist, since Fig. 5 re-adds from the complement).\n"
           "The selections do differ transiently on patterns with deep\n"
           "valleys, where partial scale-ins pick different victims.\n";
  }

  // 9. Deadline-assignment strategy: the paper's EQF variant vs EQS
  // (equal absolute slack; Kao & Garcia-Molina's other rule).
  {
    printBanner(std::cout, "Ablation 9: EQF vs EQS deadline assignment");
    Table t({"strategy", "missed %", "replicas", "combined"}, 2);
    for (const auto strat :
         {core::DeadlineStrategy::kEqf, core::DeadlineStrategy::kEqs}) {
      experiments::EpisodeConfig cfg = baseConfig();
      cfg.manager.deadline_strategy = strat;
      const auto r = runEpisode(spec, pat, fitted.models,
                                experiments::AlgorithmKind::kPredictive,
                                cfg);
      t.addRow({std::string(strat == core::DeadlineStrategy::kEqf
                                ? "EQF (paper)"
                                : "EQS"),
                r.missed_pct, r.avg_replicas, r.combined});
    }
    t.print(std::cout);
  }

  // 10. Control-plane latency: the paper applies decisions instantly; real
  // managers pay distribution + replica-spawn time.
  {
    printBanner(std::cout,
                "Ablation 10: control-plane action latency (periods)");
    Table t({"latency (periods)", "missed %", "replicas", "combined"}, 2);
    for (double lat : {0.0, 0.5, 1.0, 2.0, 4.0}) {
      experiments::EpisodeConfig cfg = baseConfig();
      cfg.manager.action_latency = spec.period * lat;
      const auto r = runEpisode(spec, pat, fitted.models,
                                experiments::AlgorithmKind::kPredictive,
                                cfg);
      t.addRow({lat, r.missed_pct, r.avg_replicas, r.combined});
    }
    t.print(std::cout);
  }

  // 11. Priority isolation: run the task's jobs above the ambient load on
  // preemptive-priority nodes vs sharing under round-robin, at a heavy
  // 40% ambient.
  {
    printBanner(std::cout,
                "Ablation 11: scheduling isolation at 40% ambient load");
    Table t({"configuration", "missed %", "replicas", "combined"}, 2);
    struct Row {
      const char* name;
      node::SchedPolicy policy;
      int bg_priority;
    };
    for (const Row& row :
         {Row{"RR sharing (paper)", node::SchedPolicy::kRoundRobin, 0},
          Row{"priority-isolated task", node::SchedPolicy::kPriority, 5}}) {
      experiments::EpisodeConfig cfg = baseConfig();
      cfg.scenario.ambient_load = Utilization::fraction(0.4);
      cfg.scenario.cpu.policy = row.policy;
      cfg.scenario.background.priority = row.bg_priority;
      const auto r = runEpisode(spec, pat, fitted.models,
                                experiments::AlgorithmKind::kPredictive,
                                cfg);
      t.addRow({std::string(row.name), r.missed_pct, r.avg_replicas,
                r.combined});
    }
    t.print(std::cout);
    std::cout << "(isolation removes the 1/(1-u) inflation the regression "
                 "models were fitted on, so the static forecasts become "
                 "conservative — fewer replicas needed in practice)\n";
  }

  std::cout << "\n(ablation tables are descriptive; no pass/fail gate)\n";
  return 0;
}
