// System-wide invariant oracle.
//
// An observer wired into the ResourceManager (via core::ManagerObserver),
// the Simulator (post-event hook), the network (delivery receipts), the
// Cluster and the WorkloadLedger, asserting after every simulation event
// the properties the paper states as invariants:
//
//   * EQF sub-deadlines always sum to the end-to-end deadline (eqs. 1-2);
//   * replica sets are non-empty, duplicate-free, and every replica's host
//     exists; non-replicable stages never gain replicas;
//   * ledger totals equal the sum of the per-task posts (eq. 5's input);
//   * sampled processor utilization stays in [0, 1];
//   * no message is delivered before it is sent (receipt causality);
//   * the predictive allocator never *accepts* a replica set whose own
//     forecast violates the deadline-minus-slack bound (Fig. 5 step 6);
//   * CPU-time conservation: every processor's busyTime() equals
//     demandServed() + schedOverhead() (+ the in-flight stretch span while
//     busy) — no scheduling discipline can create or destroy CPU time;
//   * the live release period stays inside the task's elastic bounds
//     [period, max_period], every adjustment moves it in the direction its
//     dilated flag claims, and the elastic lever never dilates in a period
//     whose monitor verdict was pure slack (nor contracts without one).
//
// With a management plane watched (managers > 1), the decentralized-plane
// invariants join in:
//
//   * election uniqueness: at most one endpoint ever holds the active role,
//     and exactly one whenever decisions are allowed;
//   * no deposed decisions: the monitor/allocator hooks never fire while no
//     live active manager owns the decision channel;
//   * bounded staleness: no summary the active decides on is older than the
//     configured staleness bound (modulo the plane's up-edge grace).
//
// With a fault injector watched, three failure-mode invariants join in:
//
//   * no placement change ever *adds* a replica on a down node (the window
//     where a crash has not yet been detected may leave stale replicas, but
//     new ones must only land on live hosts);
//   * recovery completes within a grace budget: once a node has been down
//     for `recovery_grace_ms`, no watched placement still hosts it (waived
//     while zero nodes are up — there is nowhere to recover to);
//   * lost / duplicated frames never corrupt delivery accounting: the
//     delivery-observer count always equals the substrate's delivered
//     counter, and every receipt is observed at its delivery time.
//
// The per-event sweep re-verifies a cluster's utilization index (the
// Fig.-5 pmin, growth cursor and Fig.-7 candidate set against reference
// scans) only when the index's inputs changed: the oracle keeps its own
// copy of every input the check reads (node count, per-node up flag and
// bit-exact last utilization, the index-enabled switch, and the cluster's
// rebuild count taken after the check) and, while that copy still matches
// and the last full check was clean, counts the check without replaying
// its queries. The index's answers are a deterministic function of those
// inputs, so the verdict, checksRun() and every fuzz digest are unchanged
// (docs/architecture.md, "The invariant oracle"). The public
// checkUtilizationIndex() always queries.
//
// Violations are counted and recorded (bounded), or optionally abort the
// process — tests and the fuzzer collect, long soak runs may abort.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/plane.hpp"
#include "fault/injector.hpp"
#include "net/network_model.hpp"
#include "node/cluster.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::check {

struct InvariantViolation {
  std::string invariant;  ///< short id, e.g. "eqf-budget-sum"
  std::string detail;
  SimTime at;
};

struct OracleConfig {
  /// Absolute tolerance for floating-point equality checks, in ms.
  double tolerance_ms = 1e-6;
  /// Abort the process on the first violation (soak runs); default collects.
  bool abort_on_violation = false;
  /// Keep at most this many violation records (the count is unbounded).
  std::size_t max_recorded = 100;
  /// Recovery deadline: a node down for longer than this must no longer
  /// appear in any watched placement. Cover detector worst-case latency
  /// (timeout + retries * backoff + interval) plus the K periods the
  /// manager needs to re-place (ISSUE: "recovery completes within K
  /// periods"). Only enforced when a fault injector is watched.
  double recovery_grace_ms = 2000.0;
};

class InvariantOracle final : public core::ManagerObserver,
                              public fault::FaultObserver {
 public:
  explicit InvariantOracle(OracleConfig config = {});
  ~InvariantOracle() override;
  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  // ---- wiring (all watched objects must outlive the oracle) -------------
  /// Installs the post-event sweep hook (claims the simulator's single
  /// hook slot; released on destruction).
  void watch(sim::Simulator& sim);
  void watch(const node::Cluster& cluster);
  /// Claims the network's delivery-observer slot (released on destruction).
  void watch(net::NetworkModel& net);
  void watch(const core::WorkloadLedger& ledger);
  /// Attaches as the manager's observer. Multiple managers may be watched.
  void watch(core::ResourceManager& manager);
  /// Claims the injector's observer slot (released on destruction) so
  /// crash/restart times feed the recovery-deadline invariant.
  void watch(fault::FaultInjector& injector);
  /// Watches a decentralized management plane: election uniqueness,
  /// deposed-decision suppression and the gossip staleness bound.
  void watch(const core::ManagementPlane& plane);

  // ---- results ----------------------------------------------------------
  bool ok() const { return violation_count_ == 0; }
  std::uint64_t violationCount() const { return violation_count_; }
  const std::vector<InvariantViolation>& recorded() const { return recorded_; }
  std::uint64_t checksRun() const { return checks_run_; }
  /// Human-readable summary of every recorded violation.
  std::string report() const;

  // ---- independent observation counters ---------------------------------
  // Tallied from the oracle's own hook invocations, so they form a third
  // accounting source (besides EpisodeMetrics and the obs layer) for the
  // observability cross-check tests.
  /// Delivery receipts seen through the watched network.
  std::uint64_t receiptsObserved() const { return receipts_observed_; }
  /// Period records whose end-to-end latency missed the spec deadline.
  std::uint64_t missesObserved() const { return misses_observed_; }
  /// onAllocation calls whose status actually changed the replica set.
  std::uint64_t effectiveAllocationsObserved() const {
    return effective_allocations_observed_;
  }

  // ---- granular checks (public so tests can probe them directly) --------
  void checkBudgets(const core::EqfBudgets& budgets, double deadline_ms);
  void checkPlacement(const task::Placement& placement,
                      const task::TaskSpec& spec, std::size_t cluster_size);
  void checkReceipt(const net::MessageReceipt& receipt);
  void checkLedger(const core::WorkloadLedger& ledger);
  void checkClusterUtilization(const node::Cluster& cluster);
  /// Cross-checks the cluster's utilization min-index against the
  /// reference linear scans: leastUtilized must agree with a fresh scan
  /// (including under exclusion) and belowUtilization must reproduce the
  /// scan's ascending-id candidate set.
  void checkUtilizationIndex(const node::Cluster& cluster);
  /// Membership bitset vs ordered vector: contains(p) must hold exactly
  /// for the listed nodes.
  void checkReplicaSetIndex(const task::ReplicaSet& rs, std::size_t stage,
                            std::size_t cluster_size);
  void checkRecord(const task::PeriodRecord& record);
  void checkActions(const std::vector<core::Action>& actions,
                    const task::TaskSpec& spec);
  /// Re-derives the Fig.-5 acceptance condition for a successful predictive
  /// allocation: every replica's forecast fits budget - slack reserve.
  void checkAllocation(const core::Allocator& allocator,
                       const core::AllocationContext& ctx, std::size_t stage,
                       core::AllocStatus status, const task::ReplicaSet& rs);
  /// Policy-agnostic CPU-time conservation on every processor of the
  /// cluster: busyTime() == demandServed() + schedOverhead() exactly while
  /// idle, and exceeds it by at most the in-flight span while busy.
  void checkBusyConservation(const node::Cluster& cluster);
  /// The live release period must sit inside [spec.period,
  /// spec.effectiveMaxPeriod()].
  void checkPeriodBounds(const core::ResourceManager& manager);
  /// Delivered-counter vs observed-receipt reconciliation (needs a watched
  /// network; no-op otherwise).
  void checkDeliveryAccounting();
  /// Flags watched placements still hosting a node that has been down
  /// longer than the recovery grace (each crash reported at most once).
  void checkRecoveryDeadlines();
  /// Decentralized-plane sweep: active-role uniqueness and the gossip
  /// staleness bound (needs a watched plane; no-op otherwise).
  void checkPlane();
  /// Sweeps every watched cluster / ledger / manager now. The utilization
  /// index check is skipped (but still counted) while its inputs are
  /// unchanged since the last clean one.
  void sweep();

  // ---- core::ManagerObserver --------------------------------------------
  void onBudgetsAssigned(const core::ResourceManager& manager,
                         const core::EqfBudgets& budgets) override;
  void onMonitorActions(const core::ResourceManager& manager,
                        const std::vector<core::Action>& actions) override;
  void onAllocation(const core::ResourceManager& manager, std::size_t stage,
                    core::AllocStatus status,
                    const core::AllocationContext& ctx,
                    const task::ReplicaSet& rs) override;
  void onPlacementChanged(const core::ResourceManager& manager,
                          const task::Placement& placement) override;
  void onPeriodRecord(const core::ResourceManager& manager,
                      const task::PeriodRecord& record) override;
  void onPeriodAdjust(const core::ResourceManager& manager,
                      SimDuration old_period, SimDuration new_period,
                      bool dilated) override;

  // ---- fault::FaultObserver ---------------------------------------------
  void onCrash(ProcessorId node, SimTime at) override;
  void onRestart(ProcessorId node, SimTime at) override;

 private:
  struct DownNode {
    ProcessorId node;
    SimTime since;
    bool reported = false;  ///< recovery-deadline violation already logged
  };

  void violate(const char* invariant, std::string detail);
  SimTime now() const;
  /// Deposed-decision guard shared by the decision-channel manager hooks.
  void checkDecisionOwnership(const char* hook);

  /// The oracle's copy of every input checkUtilizationIndex() reads from
  /// one watched cluster, as of its last full check in sweep().
  struct IndexInputs {
    struct Node {
      std::uint64_t util_bits = 0;  ///< lastUtilization(), bit-exact
      bool up = false;
      bool operator==(const Node&) const = default;
    };
    std::vector<Node> nodes;  ///< one per cluster node (size() included)
    bool index_enabled = false;
    std::uint64_t rebuilds = 0;  ///< indexRebuilds() *after* the check
    bool clean = false;          ///< the last full check found no violation
  };
  /// checkUtilizationIndex() unless `inputs` still matches the cluster and
  /// its last full check was clean; then only counts the check. Refreshes
  /// `inputs` on every full check.
  void sweepUtilizationIndex(const node::Cluster& cluster,
                             IndexInputs& inputs);

  OracleConfig config_;
  sim::Simulator* sim_ = nullptr;
  std::vector<const node::Cluster*> clusters_;
  std::vector<IndexInputs> index_inputs_;  ///< parallel to clusters_
  net::NetworkModel* net_ = nullptr;
  std::vector<const core::WorkloadLedger*> ledgers_;
  std::vector<core::ResourceManager*> managers_;
  fault::FaultInjector* injector_ = nullptr;
  const core::ManagementPlane* plane_ = nullptr;
  /// Last placement seen per watched manager (parallel to managers_);
  /// onPlacementChanged diffs against it to catch replicas *added* on a
  /// down node.
  std::vector<task::Placement> shadow_placements_;
  /// The monitor's verdict for the decision round in flight, per watched
  /// manager (parallel to managers_). Refreshed by onMonitorActions,
  /// cleared when the round's placement lands; onPeriodAdjust consults it
  /// to catch a dilation issued while the verdict was pure slack (or a
  /// contraction without one).
  struct MonitorVerdict {
    bool recorded = false;  ///< a non-empty action list was observed
    bool pressure = false;  ///< some stage was flagged for replication
    bool slack = false;     ///< some stage was flagged for shutdown
  };
  std::vector<MonitorVerdict> verdicts_;
  std::vector<DownNode> down_nodes_;
  std::uint64_t receipts_observed_ = 0;
  std::uint64_t misses_observed_ = 0;
  std::uint64_t effective_allocations_observed_ = 0;

  std::uint64_t checks_run_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<InvariantViolation> recorded_;

  // Scratch reused across calls so the index checks do not allocate on
  // every sweep.
  std::vector<bool> listed_scratch_;          ///< checkReplicaSetIndex
  std::vector<ProcessorId> grown_scratch_;    ///< checkUtilizationIndex
  std::vector<ProcessorId> below_scratch_;    ///< checkUtilizationIndex
};

}  // namespace rtdrm::check
