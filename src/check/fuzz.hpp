// Deterministic scenario fuzzer over the full simulated stack.
//
// Every scenario is a pure function of (seed, ShrinkSpec): cluster size,
// task pipeline, workload table (composed ramps / bursts / dropouts),
// background-load schedule, and an optional co-resident workload poster are
// all drawn from a named RNG stream. Each scenario runs under both the
// predictive (Fig. 5) and non-predictive (Fig. 7) allocators with the
// InvariantOracle watching every event, and is run twice per allocator to
// prove same-seed replay produces a byte-identical trace digest.
//
// Shrinking works by *capping* the generated scenario after all RNG draws
// (truncate subtasks, truncate the horizon, flatten the workload to its
// mean) — the draws themselves never change, so a failing seed stays the
// same scenario family while it shrinks to a minimal reproducer.
//
// With faults enabled (--faults) every seed additionally grows a fault
// schedule — node crashes (with optional restart), CPU throttle windows,
// frame loss/duplication windows, clock-sync outages — injected through
// fault::FaultInjector with a heartbeat FailureDetector driving the
// manager's failover path. The fault draws are appended *after* every
// base-scenario draw, so the base scenario of a seed is byte-identical
// with and without faults, and `drop_faults` is just one more shrink cap.
//
// With manager faults additionally enabled (--manager-faults) every seed
// draws a decentralized-plane dimension — a manager-endpoint count of 2-3
// and one manager crash (with optional restart) — appended after the node
// fault draws, so both the base scenario and the node-fault schedule of a
// seed stay byte-identical with and without it. The run then builds a
// core::ManagementPlane, a second target-mode FailureDetector over the
// manager endpoints, and the plane invariants (election uniqueness, no
// deposed decisions, bounded gossip staleness) join the oracle.
//
// With the scheduler dimension enabled (--sched) every seed additionally
// draws a node scheduling policy (RR/FIFO/priority/EDF/RMS/LLF) for the
// whole cluster, and with elastic periods enabled (--period-adjust) an
// elastic bound plus adjustment step for the manager's period lever. Both
// draws are appended after the manager-plane draws, so every narrower
// configuration of the same seed is byte-identical, and each dimension is
// one more shrink cap (drop_sched / drop_period_adjust).
//
// With the network-topology dimension enabled (--net-topology) every seed
// draws a network substrate — bus, or a switched fabric with 2-4 segments,
// line or star topology, and a bounded port buffer — and with the
// workload-mix dimension enabled (--workload-mix) a workload family
// (pareto / surge / multi) whose parameters ride on the band already drawn
// for the base table. Both draws are appended after the sched/period
// draws, so the `--drop-net-topology` / `--drop-workload-mix` caps
// reproduce the base digests byte for byte. Switched runs additionally
// check the fabric's frame-conservation invariant at the end of the run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/models.hpp"
#include "fault/detector.hpp"
#include "fault/plan.hpp"
#include "net/fabric.hpp"
#include "node/sched_policy.hpp"
#include "task/spec.hpp"
#include "workload/generators.hpp"
#include "workload/patterns.hpp"

namespace rtdrm::obs {
struct Observability;
}  // namespace rtdrm::obs

namespace rtdrm::check {

/// Caps the shrinker applies to a generated scenario (0 / false = uncapped).
struct ShrinkSpec {
  /// Keep at most this many subtasks (floor 2; 0 = uncapped).
  std::size_t max_subtasks = 0;
  /// Run at most this many periods (floor 3; 0 = uncapped).
  std::uint64_t max_periods = 0;
  /// Replace the workload table with a constant at its mean.
  bool flatten_workload = false;
  /// Strip the fault schedule (only meaningful when faults are enabled).
  bool drop_faults = false;
  /// Strip the decentralized-plane dimension: back to one manager and no
  /// manager crashes (only meaningful when manager faults are enabled).
  bool drop_manager_faults = false;
  /// Back to the Round-Robin baseline scheduler (only meaningful when the
  /// scheduler dimension is enabled).
  bool drop_sched = false;
  /// Strip the elastic-period dimension: inelastic spec, lever off (only
  /// meaningful when period adjustment is enabled).
  bool drop_period_adjust = false;
  /// Back to the shared bus (only meaningful when the network-topology
  /// dimension is enabled).
  bool drop_net_topology = false;
  /// Back to the paper workload family (only meaningful when the
  /// workload-mix dimension is enabled).
  bool drop_workload_mix = false;

  bool unshrunk() const {
    return max_subtasks == 0 && max_periods == 0 && !flatten_workload &&
           !drop_faults && !drop_manager_faults && !drop_sched &&
           !drop_period_adjust && !drop_net_topology && !drop_workload_mix;
  }
  /// Command-line fragment reproducing these caps (" --max-subtasks=3 ...";
  /// empty when unshrunk).
  std::string cliFlags() const;
};

/// A workload pattern backed by a precomputed per-period table; periods
/// beyond the table hold the last level.
class TablePattern final : public workload::Pattern {
 public:
  explicit TablePattern(std::vector<double> tracks)
      : tracks_(std::move(tracks)) {}
  DataSize at(std::uint64_t period) const override {
    if (tracks_.empty()) {
      return DataSize::zero();
    }
    const std::size_t i =
        period < tracks_.size() ? static_cast<std::size_t>(period)
                                : tracks_.size() - 1;
    return DataSize::tracks(tracks_[i]);
  }
  std::string name() const override { return "fuzz-table"; }

 private:
  std::vector<double> tracks_;
};

/// A step change in one node's background-load target.
struct BackgroundStep {
  std::uint64_t period = 0;
  std::uint32_t node = 0;
  double target = 0.0;
};

/// One fully generated fuzz scenario.
struct FuzzScenario {
  std::uint64_t seed = 0;
  std::size_t node_count = 0;
  std::uint64_t periods = 0;
  task::TaskSpec spec;
  /// Offered workload per period, in tracks (the composed pattern table).
  std::vector<double> workload_tracks;
  /// Initial per-node background-load targets (utilization fractions).
  std::vector<double> background_targets;
  std::vector<BackgroundStep> background_steps;
  /// Per-period workload a co-resident task posts to the shared ledger
  /// (empty = single-task deployment).
  std::vector<double> coresident_tracks;
  core::ManagerConfig manager;
  core::PredictiveModels models;
  /// Fault schedule (empty unless generated with faults enabled — an empty
  /// plan injects nothing and wires no detector, so the run matches the
  /// faultless build byte for byte).
  fault::FaultPlan faults;
  /// Heartbeat detector configuration used when `faults` is non-empty
  /// (also reused, with home node 0, for the manager-endpoint detector).
  fault::DetectorConfig detector;
  /// Manager endpoints; > 1 only when generated with manager faults, and
  /// then `faults.manager_crashes` carries the crash schedule.
  std::size_t managers = 1;
  /// Cluster-wide node scheduling policy; non-RR only when generated with
  /// the scheduler dimension enabled.
  node::SchedPolicy sched = node::SchedPolicy::kRoundRobin;
  /// Network substrate; kSwitched only when generated with the
  /// network-topology dimension enabled (and the seed drew switched).
  net::NetKind net_kind = net::NetKind::kBus;
  /// Fabric shape when net_kind == kSwitched (link parameters are the
  /// scenario defaults, as on the bus path).
  net::SwitchedFabricConfig fabric{};
  /// Workload family; non-paper only when generated with the workload-mix
  /// dimension enabled. kPareto/kSurge rewrite `workload_tracks` from the
  /// corresponding generator (pure per-period draws); kMulti keeps the
  /// table and adds contender flows on the network substrate.
  workload::WorkloadMix workload_mix = workload::WorkloadMix::kPaper;
  workload::ContenderConfig contenders{};

  std::string summary() const;
};

/// Generates the scenario for `seed` under the given caps. Caps only
/// truncate/flatten the already-drawn scenario, so every cap combination of
/// the same seed shares the same underlying draws. `with_faults` attaches
/// the seed's fault schedule (drawn either way, appended after every base
/// draw, so the base scenario is identical with and without it).
FuzzScenario makeFuzzScenario(std::uint64_t seed, const ShrinkSpec& shrink = {},
                              bool with_faults = false,
                              bool with_manager_faults = false,
                              bool with_sched = false,
                              bool with_period_adjust = false,
                              bool with_net_topology = false,
                              bool with_workload_mix = false);

enum class AllocatorKind { kPredictive, kNonPredictive };
const char* allocatorKindName(AllocatorKind kind);

/// Empty placeholder that keeps runFuzzSeed's positional signature stable
/// for existing callers; it carries no execution options.
struct FuzzExecConfig {};

/// Outcome of one scenario run under one allocator.
struct FuzzCaseResult {
  std::uint64_t violations = 0;
  std::uint64_t checks = 0;  ///< oracle checks run during this case
  std::string report;        ///< oracle report (empty when clean)
  /// Byte-exact digest of the run (trace events + metrics + substrate
  /// counters, hex-float formatted). Identical seeds must produce
  /// identical digests.
  std::string digest;
  /// Observability reconciliation report (only when an obs bundle was
  /// passed): empty when the obs trace/metrics totals agree with
  /// EpisodeMetrics and the oracle's own observation counters, else one
  /// line per disagreement.
  std::string obs_mismatch;
};

/// Runs one scenario under one allocator with the oracle attached. When
/// `obs` is non-null the manager records its decision audit into it, every
/// substrate exports its counters at the end, and the three accounting
/// sources (obs, EpisodeMetrics, oracle) are reconciled into
/// `obs_mismatch`. The digest is computed identically either way — the
/// neutrality tests rely on that.
FuzzCaseResult runFuzzCase(const FuzzScenario& scenario, AllocatorKind kind,
                           obs::Observability* obs = nullptr);

/// Aggregate verdict for one seed: both allocators, each run twice.
struct FuzzOutcome {
  bool invariants_ok = true;
  bool deterministic = true;
  std::uint64_t violations = 0;
  std::uint64_t checks = 0;
  std::string detail;  ///< first failure description (empty when clean)

  bool failed() const { return !invariants_ok || !deterministic; }
};

FuzzOutcome runFuzzSeed(std::uint64_t seed, const ShrinkSpec& shrink = {},
                        bool with_faults = false,
                        const FuzzExecConfig& /*unused*/ = {},
                        bool with_manager_faults = false,
                        bool with_sched = false,
                        bool with_period_adjust = false,
                        bool with_net_topology = false,
                        bool with_workload_mix = false);

/// Failure predicate: does `seed` under these caps still fail?
using FailsFn = std::function<bool(std::uint64_t, const ShrinkSpec&)>;

/// Greedy shrink: starting from `initial` (which must fail), repeatedly
/// tries harsher caps — dropped faults (when enabled), fewer subtasks,
/// shorter horizon, flat workload — keeping each cap that still fails,
/// until no harsher cap does. Returns the harshest failing ShrinkSpec
/// found.
ShrinkSpec minimize(std::uint64_t seed, const ShrinkSpec& initial,
                    const FailsFn& fails, bool with_faults = false,
                    bool with_manager_faults = false,
                    bool with_sched = false,
                    bool with_period_adjust = false,
                    bool with_net_topology = false,
                    bool with_workload_mix = false);

}  // namespace rtdrm::check
