// Whole-system evaluation episodes (paper §5.2).
//
// One episode = one workload pattern driven through the full stack —
// scenario (cluster + Ethernet + clocks), task pipeline, resource manager
// with one of the two allocators — for a fixed number of periods, yielding
// the metrics of Figs. 9-13. Sweeps run many episodes across max-workload
// levels; points are independent and execute in parallel.
//
// Every episode, single-task or task set, plain or fuzzed, is assembled
// by one Episode: it builds the managers and whatever the config asks for
// around them, and starts, stops and drains them in one fixed order
// (docs/architecture.md, "Episode assembly").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/scenario.hpp"
#include "core/ledger.hpp"
#include "core/manager.hpp"
#include "core/metrics.hpp"
#include "core/models.hpp"
#include "core/plane.hpp"
#include "fault/detector.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"
#include "task/spec.hpp"
#include "workload/generators.hpp"
#include "workload/patterns.hpp"

namespace rtdrm::experiments {

enum class AlgorithmKind { kPredictive, kNonPredictive };

std::string algorithmName(AlgorithmKind kind);

struct EpisodeConfig {
  apps::ScenarioConfig scenario{};
  std::uint64_t periods = 72;
  /// Extra drain time after the last release, in periods.
  double drain_periods = 3.0;
  core::ManagerConfig manager{};
  /// UT for the non-predictive allocator (Table 1: 20%).
  Utilization nonpredictive_threshold = Utilization::percent(20.0);
  /// Optional environmental drift: at period `drift_at_period` (> 0) of
  /// the first task the ground-truth cost of every replicable subtask is
  /// scaled by `drift_cost_scale` — new instances run at the new cost,
  /// while the offline models keep predicting the old one (pair with
  /// manager.online_refit to study a-posteriori refinement).
  std::uint64_t drift_at_period = 0;
  double drift_cost_scale = 1.0;
  /// Observability bundle (optional; single-episode runs only — sweeps run
  /// episodes in parallel and never set it). When non-null the manager's
  /// decision audit is recorded into its trace ring, and at episode end
  /// every substrate exports its counters into its registry.
  obs::Observability* obs = nullptr;
  /// Decentralized management plane. managers == 1 (the default) builds no
  /// plane at all — the episode is bit-for-bit identical to the legacy
  /// centralized path.
  core::PlaneConfig plane{};
  /// Manager-endpoint fault schedule (managers > 1 only): crash endpoint
  /// `manager_fault_target` at period `manager_crash_at_period` (0 = no
  /// crash), restarting it `manager_restart_after_periods` periods later
  /// (0 = never).
  std::uint64_t manager_crash_at_period = 0;
  std::uint32_t manager_fault_target = 0;
  double manager_restart_after_periods = 0.0;
  /// Heartbeat detector over the manager endpoints (managers > 1 only;
  /// drives elections).
  fault::DetectorConfig manager_detector{};
  /// Workload family. kPaper (the default) offers exactly the pattern the
  /// caller passed — byte-identical to every run before the generators
  /// existed. kPareto/kSurge replace it with the corresponding generator
  /// (seeded from the scenario seed); kMulti keeps the caller's pattern
  /// and adds co-hosted contender flows on the network substrate.
  workload::WorkloadMix workload_mix = workload::WorkloadMix::kPaper;
  workload::ParetoParams pareto{};
  workload::SurgeParams surge{};
  /// Sensor count for kSurge (the pipeline fuses all sensors' tracks).
  std::size_t surge_sensors = 4;
  workload::ContenderConfig contenders{};
};

struct EpisodeResult {
  core::EpisodeMetrics metrics;
  double combined = 0.0;       ///< the paper's C metric
  double missed_pct = 0.0;     ///< missed-deadline ratio, percent
  double cpu_pct = 0.0;        ///< mean CPU utilization, percent
  double net_pct = 0.0;        ///< mean network utilization, percent
  double avg_replicas = 0.0;   ///< mean replicas per replicable subtask
  // Decentralized-plane outcomes (all zero with managers == 1).
  double decision_gap_ms = 0.0;        ///< crash -> election gap total
  std::uint64_t elections = 0;
  std::uint64_t gossip_rounds = 0;
  std::uint64_t suppressed_periods = 0;  ///< period ticks gated out
};

/// One periodic task of an episode: its structure (the episode runs its
/// own copy), its offered workload, its fitted planning models and its
/// pattern phase — period c offers pattern->at(c + phase). The pattern and
/// the models must outlive the episode.
struct TaskSetMember {
  task::TaskSpec spec;
  const workload::Pattern* pattern = nullptr;
  const core::PredictiveModels* models = nullptr;
  std::uint64_t phase = 0;
};

/// The assembled episode. The constructor builds, in this order: the
/// scenario; the task copies and the drift event; per task t a manager
/// with initial placement (s + 2t) % N, the allocator for `algorithm`,
/// noise stream ("exec-noise", t) and a seat in the shared workload
/// ledger (only task 0 samples the cluster); then, with
/// config.plane.managers > 1, the plane adopting task 0's manager; the
/// fault injector, armed, when `faults` is given or the config schedules
/// a manager crash; the target-mode detector over the manager endpoints;
/// and the contender traffic of the kMulti workload mix.
///
/// Callers may add hooks through scenario(), manager(t), plane() and the
/// other accessors, and side activities through addActivity(), before
/// run(). Same-time events fire in scheduling order, so the order above
/// and in run() is part of every result.
class Episode {
 public:
  /// `faults`, when given, is armed as is (an empty plan still builds an
  /// injector); a manager crash scheduled by the config is appended to it,
  /// or to a fresh plan seeded with the scenario seed.
  Episode(const EpisodeConfig& config, AlgorithmKind algorithm,
          std::vector<TaskSetMember> tasks,
          std::optional<fault::FaultPlan> faults = std::nullopt);
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  apps::Scenario& scenario() { return scenario_; }
  core::ResourceManager& manager(std::size_t t = 0) {
    return *managers_.at(t);
  }
  core::WorkloadLedger& ledger() { return ledger_; }
  /// Null unless config.plane.managers > 1.
  core::ManagementPlane* plane() { return plane_.get(); }
  /// Null unless a fault plan or a manager crash was given.
  fault::FaultInjector* injector() { return injector_.get(); }
  /// The detector over the manager endpoints; null without a plane.
  fault::FailureDetector* managerDetector() { return mgr_detector_.get(); }
  /// Null unless config.workload_mix is kMulti.
  workload::ContenderTraffic* contenders() { return contenders_.get(); }

  /// Runs `start` after the managers and the plane start and before the
  /// manager detector does, and `stop` right after the managers stop;
  /// activities go in the order they were added.
  void addActivity(std::function<void(SimTime)> start,
                   std::function<void()> stop);

  /// Starts everything, runs `horizon`, stops the managers, the
  /// activities and the manager detector, drains for the slowest task's
  /// period times config.drain_periods, stops the plane, and exports
  /// every substrate's counters into config.obs when one is set.
  void run(SimDuration horizon);
  /// run() over config.periods periods of the first task.
  void run();

  /// Task t's outcome, with the plane outcomes when a plane ran.
  EpisodeResult result(std::size_t t = 0) const;

 private:
  struct Activity {
    std::function<void(SimTime)> start;
    std::function<void()> stop;
  };

  EpisodeConfig config_;
  apps::Scenario scenario_;
  core::WorkloadLedger ledger_;
  std::vector<TaskSetMember> tasks_;
  std::vector<std::unique_ptr<core::ResourceManager>> managers_;
  std::unique_ptr<core::ManagementPlane> plane_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::FailureDetector> mgr_detector_;
  std::unique_ptr<workload::ContenderTraffic> contenders_;
  std::vector<Activity> activities_;
};

/// Runs one episode. The same (spec, pattern, seed) with different
/// algorithms sees identical workloads and noise streams — paired
/// comparison, as in the paper's per-point experiments.
EpisodeResult runEpisode(const task::TaskSpec& spec,
                         const workload::Pattern& pattern,
                         const core::PredictiveModels& models,
                         AlgorithmKind algorithm, const EpisodeConfig& config);

/// One x-axis point of Figs. 9-13: both algorithms at one max workload.
struct SweepPoint {
  double max_workload_units = 0.0;  ///< in scale units of 500 tracks
  EpisodeResult predictive;
  EpisodeResult non_predictive;
};

struct SweepConfig {
  EpisodeConfig episode{};
  workload::RampParams ramp{};  ///< min workload & ramp length; max is swept
  /// Max-workload grid in scale units of 500 tracks (paper: 2..34).
  std::vector<double> max_workload_units{2,  4,  6,  8,  10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30, 32, 34};
  /// Episodes per point per algorithm; > 1 averages across seeds
  /// (base seed + r), smoothing the curves the paper draws from single
  /// runs.
  std::size_t replications = 1;
  bool parallel = true;
};

/// Runs both algorithms at every max-workload level of the given Fig. 8
/// pattern ("increasing" | "decreasing" | "triangular").
std::vector<SweepPoint> runWorkloadSweep(const task::TaskSpec& spec,
                                         const core::PredictiveModels& models,
                                         const std::string& pattern,
                                         const SweepConfig& config);

}  // namespace rtdrm::experiments
