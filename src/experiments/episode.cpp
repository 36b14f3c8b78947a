#include "experiments/episode.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/parallel.hpp"

namespace rtdrm::experiments {

std::string algorithmName(AlgorithmKind kind) {
  return kind == AlgorithmKind::kPredictive ? "predictive" : "non-predictive";
}

Episode::Episode(const EpisodeConfig& config, AlgorithmKind algorithm,
                 std::vector<TaskSetMember> tasks,
                 std::optional<fault::FaultPlan> faults)
    : config_(config), scenario_(config.scenario), tasks_(std::move(tasks)) {
  RTDRM_ASSERT(!tasks_.empty());
  sim::Simulator& sim = scenario_.sim();
  const SimDuration period = tasks_.front().spec.period;

  // The pipelines read their spec copies at job-submission time, so
  // scaling the copies mid-run changes the ground truth for subsequent
  // instances while the models keep predicting the old cost.
  if (config_.drift_at_period > 0) {
    sim.scheduleAt(
        SimTime::zero() + period * static_cast<double>(config_.drift_at_period),
        [this, scale = config_.drift_cost_scale] {
          for (TaskSetMember& task : tasks_) {
            for (auto& st : task.spec.subtasks) {
              if (st.replicable) {
                st.cost.alpha_ms *= scale;
                st.cost.beta_ms *= scale;
              }
            }
          }
        });
  }

  // One manager per task. With one task the ledger total is that task's
  // own workload, so joining it changes nothing.
  const std::size_t nodes = config_.scenario.node_count;
  managers_.reserve(tasks_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const TaskSetMember& task = tasks_[t];
    RTDRM_ASSERT(task.pattern != nullptr && task.models != nullptr);
    // Chain spread round-robin over the nodes, one replica per subtask
    // (replication is the run-time system's job), staggered per task so
    // primaries don't pile onto node 0.
    std::vector<ProcessorId> homes;
    homes.reserve(task.spec.stageCount());
    for (std::size_t s = 0; s < task.spec.stageCount(); ++s) {
      homes.push_back(
          ProcessorId{static_cast<std::uint32_t>((s + 2 * t) % nodes)});
    }
    std::unique_ptr<core::Allocator> allocator;
    if (algorithm == AlgorithmKind::kPredictive) {
      allocator = std::make_unique<core::PredictiveAllocator>(*task.models);
    } else {
      allocator = std::make_unique<core::NonPredictiveAllocator>(
          config_.nonpredictive_threshold);
    }
    core::ManagerConfig mgr_cfg = config_.manager;
    // Exactly one manager owns the cluster's utilization sampling window.
    mgr_cfg.sample_cluster = mgr_cfg.sample_cluster && t == 0;
    managers_.push_back(std::make_unique<core::ResourceManager>(
        scenario_.runtime(), task.spec, task::Placement(homes),
        [pattern = task.pattern, phase = task.phase](std::uint64_t c) {
          return pattern->at(c + phase);
        },
        std::move(allocator), *task.models, mgr_cfg,
        scenario_.streams().get("exec-noise", t)));
    managers_.back()->attachLedger(ledger_);
    if (config_.obs != nullptr) {
      managers_.back()->attachObs(*config_.obs);
    }
  }

  // Decentralized plane (managers > 1 only — the default builds none of
  // this, keeping the centralized path bit-for-bit): gossiping endpoints,
  // an optional manager-crash schedule through the fault injector, and a
  // target-mode heartbeat detector driving elections.
  if (config_.plane.managers > 1) {
    RTDRM_ASSERT_MSG(managers_.size() == 1,
                     "a management plane adopts a single task's manager");
    plane_ = std::make_unique<core::ManagementPlane>(
        sim, scenario_.net(), scenario_.cluster(), config_.plane);
    plane_->adopt(*managers_.front());
    if (config_.obs != nullptr) {
      plane_->attachObs(*config_.obs);
    }
    if (config_.manager_crash_at_period > 0) {
      if (!faults.has_value()) {
        faults.emplace();
        faults->seed = config_.scenario.seed;
      }
      fault::ManagerCrashFault mc;
      mc.manager = config_.manager_fault_target;
      mc.at = SimTime::zero() +
              period * static_cast<double>(config_.manager_crash_at_period);
      if (config_.manager_restart_after_periods > 0.0) {
        mc.restart_at = mc.at + period * config_.manager_restart_after_periods;
      }
      faults->manager_crashes.push_back(mc);
    }
  }
  if (faults.has_value()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        sim, scenario_.cluster(), &scenario_.net(), &scenario_.clocks(),
        std::move(*faults));
    if (plane_ != nullptr) {
      injector_->setManagerFaultTarget(
          config_.plane.managers,
          [p = plane_.get()](std::uint32_t m, bool up) {
            p->setManagerUp(m, up);
          });
    }
    injector_->arm();
  }
  if (plane_ != nullptr) {
    std::vector<fault::DetectorTarget> targets;
    targets.reserve(config_.plane.managers);
    for (std::uint32_t mi = 0;
         mi < static_cast<std::uint32_t>(config_.plane.managers); ++mi) {
      targets.push_back(fault::DetectorTarget{
          mi, plane_->hostOf(mi),
          [p = plane_.get(), mi] { return p->endpointReachable(mi); }});
    }
    mgr_detector_ = std::make_unique<fault::FailureDetector>(
        sim, scenario_.net(), config_.manager_detector, std::move(targets),
        [p = plane_.get()](std::uint32_t m) { p->onManagerSuspected(m); },
        [p = plane_.get()](std::uint32_t m) { p->onManagerRecovered(m); });
  }

  // Multi-pipeline mix: contender flows on the network substrate. Their
  // draws are pure functions of (contender seed, flow, tick), so they
  // never perturb any other component's RNG stream.
  if (config_.workload_mix == workload::WorkloadMix::kMulti) {
    contenders_ = std::make_unique<workload::ContenderTraffic>(
        sim, scenario_.net(), nodes, config_.contenders);
  }
}

void Episode::addActivity(std::function<void(SimTime)> start,
                          std::function<void()> stop) {
  activities_.push_back(Activity{std::move(start), std::move(stop)});
}

void Episode::run() {
  run(tasks_.front().spec.period * static_cast<double>(config_.periods));
}

void Episode::run(SimDuration horizon) {
  const SimTime now = scenario_.sim().now();
  if (contenders_ != nullptr) {
    contenders_->start();
  }
  for (auto& m : managers_) {
    m->start(now);
  }
  if (plane_ != nullptr) {
    plane_->start(now);
  }
  for (const Activity& a : activities_) {
    a.start(now);
  }
  if (mgr_detector_ != nullptr) {
    mgr_detector_->start(now);
  }
  scenario_.runFor(horizon);
  for (auto& m : managers_) {
    m->stop();
  }
  for (const Activity& a : activities_) {
    a.stop();
  }
  if (mgr_detector_ != nullptr) {
    mgr_detector_->stop();
  }
  // The plane keeps gossiping through the drain so every decision still
  // sees a fresh view; it stops (closing any open gap) only after it.
  SimDuration slowest = tasks_.front().spec.period;
  for (const TaskSetMember& task : tasks_) {
    slowest = std::max(slowest, task.spec.period);
  }
  scenario_.runFor(slowest * config_.drain_periods);
  if (plane_ != nullptr) {
    plane_->stop();
  }

  if (config_.obs != nullptr) {
    obs::MetricsRegistry& reg = config_.obs->metrics;
    scenario_.sim().exportMetrics(reg);
    scenario_.net().exportMetrics(reg);
    scenario_.cluster().exportMetrics(reg);
    for (const auto& m : managers_) {
      m->exportMetrics(reg);
    }
    if (plane_ != nullptr) {
      plane_->exportMetrics(reg);
      mgr_detector_->exportMetrics(reg);
    }
  }
}

EpisodeResult Episode::result(std::size_t t) const {
  EpisodeResult out;
  out.metrics = managers_.at(t)->metrics();
  out.combined = out.metrics.combined(config_.scenario.node_count);
  out.missed_pct = out.metrics.missedRatio() * 100.0;
  out.cpu_pct = out.metrics.cpu_utilization.mean() * 100.0;
  out.net_pct = out.metrics.net_utilization.mean() * 100.0;
  out.avg_replicas = out.metrics.replicas_per_subtask.mean();
  if (plane_ != nullptr) {
    out.decision_gap_ms = plane_->decisionGapMs();
    out.elections = plane_->elections();
    out.gossip_rounds = plane_->gossipRounds();
    out.suppressed_periods = out.metrics.suppressed_decision_periods;
  }
  return out;
}

EpisodeResult runEpisode(const task::TaskSpec& spec,
                         const workload::Pattern& pattern,
                         const core::PredictiveModels& models,
                         AlgorithmKind algorithm,
                         const EpisodeConfig& config) {
  // Workload mix: kPaper offers the caller's pattern verbatim; the
  // generator mixes swap it (seeded from the scenario seed so paired
  // algorithm runs see identical arrivals); kMulti keeps the pattern and
  // the episode adds contender flows.
  std::unique_ptr<workload::CorrelatedSurge> surge_gen;
  std::unique_ptr<workload::Pattern> generated;
  switch (config.workload_mix) {
    case workload::WorkloadMix::kPaper:
    case workload::WorkloadMix::kMulti:
      break;
    case workload::WorkloadMix::kPareto:
      generated = std::make_unique<workload::ParetoArrivals>(
          config.pareto, config.scenario.seed);
      break;
    case workload::WorkloadMix::kSurge:
      surge_gen = std::make_unique<workload::CorrelatedSurge>(
          config.surge, config.surge_sensors, config.scenario.seed);
      generated = surge_gen->fusedPattern();
      break;
  }
  // Contender flows differ per scenario seed, so replications and sweep
  // points each see their own.
  EpisodeConfig cfg = config;
  cfg.contenders.seed ^= config.scenario.seed * 0x9e3779b97f4a7c15ULL;

  Episode episode(cfg, algorithm,
                  {TaskSetMember{spec,
                                 generated != nullptr ? generated.get()
                                                      : &pattern,
                                 &models, 0}});
  episode.run();
  return episode.result();
}

std::vector<SweepPoint> runWorkloadSweep(const task::TaskSpec& spec,
                                         const core::PredictiveModels& models,
                                         const std::string& pattern,
                                         const SweepConfig& config) {
  RTDRM_ASSERT(!config.max_workload_units.empty());
  std::vector<SweepPoint> points(config.max_workload_units.size());

  parallelFor(
      points.size(),
      [&](std::size_t i) {
        const double units = config.max_workload_units[i];
        workload::RampParams ramp = config.ramp;
        ramp.max_workload = DataSize::tracks(units * 500.0);

        EpisodeConfig ep = config.episode;
        // EQF initial conditions track the pattern's starting workload.
        ep.manager.d_init = pattern == "decreasing" ? ramp.max_workload
                                                    : ramp.min_workload;

        const auto pat = workload::makeFig8Pattern(pattern, ramp);
        SweepPoint& pt = points[i];
        pt.max_workload_units = units;

        auto averaged = [&](AlgorithmKind kind) {
          if (config.replications <= 1) {
            return runEpisode(spec, *pat, models, kind, ep);
          }
          EpisodeResult mean;
          for (std::size_t r = 0; r < config.replications; ++r) {
            EpisodeConfig rep = ep;
            rep.scenario.seed = ep.scenario.seed + r;
            const EpisodeResult one = runEpisode(spec, *pat, models, kind,
                                                 rep);
            mean.missed_pct += one.missed_pct;
            mean.cpu_pct += one.cpu_pct;
            mean.net_pct += one.net_pct;
            mean.avg_replicas += one.avg_replicas;
            mean.combined += one.combined;
            if (r == 0) {
              mean.metrics = one.metrics;  // representative first replicate
            }
          }
          const auto n = static_cast<double>(config.replications);
          mean.missed_pct /= n;
          mean.cpu_pct /= n;
          mean.net_pct /= n;
          mean.avg_replicas /= n;
          mean.combined /= n;
          return mean;
        };
        pt.predictive = averaged(AlgorithmKind::kPredictive);
        pt.non_predictive = averaged(AlgorithmKind::kNonPredictive);
      },
      config.parallel ? 0 : 1);
  return points;
}

}  // namespace rtdrm::experiments
