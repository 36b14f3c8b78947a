// Deterministic scenario fuzzer over the full simulated stack.
//
// Every scenario is a pure function of (seed, FuzzSpec): cluster size,
// task pipeline, workload table (composed ramps / bursts / dropouts),
// background-load schedule, and an optional co-resident workload poster are
// all drawn from a named RNG stream. Each scenario runs under both the
// predictive (Fig. 5) and non-predictive (Fig. 7) allocators with the
// InvariantOracle watching every event, and is run twice per allocator to
// prove same-seed replay produces a byte-identical trace digest.
//
// A FuzzSpec holds a dimension mask and three shrink caps. Every seed
// draws every dimension, unconditionally and in one fixed order, after all
// base-scenario draws; the mask only decides which draws are applied. So
// the base scenario of a seed, and every narrower mask of it, stays
// byte-identical whichever other dimensions are on, and shrinking a
// dimension away is the same as never enabling it. The dimensions, in
// draw order:
//
//   faults          node crashes (with optional restart), CPU throttle
//                   windows, frame loss/duplication windows and clock-sync
//                   outages, injected through fault::FaultInjector with a
//                   heartbeat FailureDetector driving the manager's
//                   failover path;
//   manager-faults  a decentralized plane of 2-3 manager endpoints and one
//                   manager crash (with optional restart); the run builds a
//                   core::ManagementPlane and a target-mode detector over
//                   the endpoints, and the plane invariants (election
//                   uniqueness, no deposed decisions, bounded gossip
//                   staleness) join the oracle;
//   sched           one node scheduling policy (RR/FIFO/priority/EDF/RMS/
//                   LLF) for the whole cluster;
//   period-adjust   an elastic period bound plus the manager's dilation
//                   step;
//   net-topology    the bus, or a switched fabric with 2-4 segments, line
//                   or star topology and a bounded port buffer (switched
//                   runs also check the fabric's frame conservation);
//   workload-mix    a workload family (pareto / surge / multi) whose
//                   parameters ride on the band drawn for the base table.
//
// The shrink caps truncate the generated scenario after all draws
// (truncate subtasks, truncate the horizon, flatten the workload to its
// mean), so a failing seed stays the same scenario family while minimize()
// shrinks it to a minimal reproducer: `--replay-seed=N` plus cliFlags().
#pragma once

#include <array>
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

/// One scenario dimension the fuzzer can apply on top of the base scenario.
enum class FuzzDim : std::uint8_t {
  kNetTopology,
  kWorkloadMix,
  kSched,
  kPeriodAdjust,
  kManagerFaults,
  kFaults,
};

struct FuzzDimension {
  FuzzDim dim;
  const char* flag;  ///< fuzz_scenarios flag, without the leading dashes
  const char* help;
};

/// Every dimension, in the order minimize() tries to drop them: the
/// simplest explanation first (the shared bus, the paper workload, the
/// Round-Robin baseline, inelastic periods, one manager, no faults).
inline constexpr std::array<FuzzDimension, 6> kFuzzDimensions{{
    {FuzzDim::kNetTopology, "net-topology",
     "grow a network-topology dimension per seed (bus or a 2-4 segment "
     "switched fabric, line or star)"},
    {FuzzDim::kWorkloadMix, "workload-mix",
     "grow a workload-mix dimension per seed (pareto / surge / multi "
     "contender flows)"},
    {FuzzDim::kSched, "sched",
     "grow a scheduler dimension per seed (the cluster draws one of "
     "rr/fifo/priority/edf/rms/llf)"},
    {FuzzDim::kPeriodAdjust, "period-adjust",
     "grow an elastic-period dimension per seed (max_period bound plus the "
     "manager's dilation lever)"},
    {FuzzDim::kManagerFaults, "manager-faults",
     "grow a decentralized-plane dimension per seed (2-3 manager endpoints "
     "plus a manager crash/restart schedule)"},
    {FuzzDim::kFaults, "faults",
     "grow a fault schedule (crashes, throttles, frame loss, clock "
     "outages) per seed"},
}};

/// What to generate for a seed: which dimensions apply, and the caps the
/// shrinker puts on the generated scenario (0 / false = uncapped).
struct FuzzSpec {
  static constexpr std::uint32_t bit(FuzzDim d) {
    return 1u << static_cast<unsigned>(d);
  }
  static constexpr std::uint32_t kAllDims = (1u << kFuzzDimensions.size()) - 1;

  /// Enabled dimensions, one bit(d) each.
  std::uint32_t dims = 0;
  /// Keep at most this many subtasks (floor 2; 0 = uncapped).
  std::size_t max_subtasks = 0;
  /// Run at most this many periods (floor 3; 0 = uncapped).
  std::uint64_t max_periods = 0;
  /// Replace the workload table with a constant at its mean.
  bool flatten_workload = false;

  bool has(FuzzDim d) const { return (dims & bit(d)) != 0; }
  FuzzSpec& set(FuzzDim d, bool on) {
    dims = on ? (dims | bit(d)) : (dims & ~bit(d));
    return *this;
  }
  bool operator==(const FuzzSpec&) const = default;

  /// Command-line fragment reproducing this spec (" --faults ...
  /// --max-periods=3 --flat"; empty for the default spec). Dimensions come
  /// in the reverse of kFuzzDimensions, broadest first, then the caps.
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

/// Generates the scenario for `seed` under `spec`. The dimension mask and
/// the caps only select and truncate the draws, so every spec of the same
/// seed shares the same underlying draws.
FuzzScenario makeFuzzScenario(std::uint64_t seed, const FuzzSpec& spec = {});

enum class AllocatorKind { kPredictive, kNonPredictive };
const char* allocatorKindName(AllocatorKind kind);

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

FuzzOutcome runFuzzSeed(std::uint64_t seed, const FuzzSpec& spec = {});

/// Failure predicate: does `seed` under this spec still fail?
using FailsFn = std::function<bool(std::uint64_t, const FuzzSpec&)>;

/// Greedy shrink: starting from `initial` (which must fail), repeatedly
/// tries a harsher spec (one dimension dropped, in kFuzzDimensions order,
/// then fewer subtasks, a shorter horizon, a flat workload), keeping each
/// one that still fails, until none does. Returns the harshest failing
/// spec found.
FuzzSpec minimize(std::uint64_t seed, const FuzzSpec& initial,
                  const FailsFn& fails);

// ---- positional-bool forms ---------------------------------------------
// perfbench/workloads.cpp still calls the two positional signatures below
// and is frozen until the next benchmark change (ROADMAP item 5), so they
// stay as forwarders onto the mask API, with withDims() and the empty
// FuzzExecConfig. Delete all four with that change. They take no default
// arguments, so no call is ambiguous with the mask API.

/// Empty placeholder for runFuzzSeed's positional form; it carries no
/// execution options.
struct FuzzExecConfig {};

inline FuzzSpec withDims(FuzzSpec caps, bool faults, bool manager_faults,
                         bool sched, bool period_adjust, bool net_topology,
                         bool workload_mix) {
  return caps.set(FuzzDim::kFaults, faults)
      .set(FuzzDim::kManagerFaults, manager_faults)
      .set(FuzzDim::kSched, sched)
      .set(FuzzDim::kPeriodAdjust, period_adjust)
      .set(FuzzDim::kNetTopology, net_topology)
      .set(FuzzDim::kWorkloadMix, workload_mix);
}

inline FuzzScenario makeFuzzScenario(std::uint64_t seed, FuzzSpec caps,
                                     bool faults, bool manager_faults,
                                     bool sched, bool period_adjust,
                                     bool net_topology, bool workload_mix) {
  return makeFuzzScenario(seed, withDims(caps, faults, manager_faults, sched,
                                         period_adjust, net_topology,
                                         workload_mix));
}

inline FuzzOutcome runFuzzSeed(std::uint64_t seed, FuzzSpec caps, bool faults,
                               const FuzzExecConfig& /*unused*/,
                               bool manager_faults, bool sched,
                               bool period_adjust, bool net_topology,
                               bool workload_mix) {
  return runFuzzSeed(seed, withDims(caps, faults, manager_faults, sched,
                                    period_adjust, net_topology,
                                    workload_mix));
}

}  // namespace rtdrm::check
