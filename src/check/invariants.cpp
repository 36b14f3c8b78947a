#include "check/invariants.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/assert.hpp"

namespace rtdrm::check {

InvariantOracle::InvariantOracle(OracleConfig config)
    : config_(config) {}

InvariantOracle::~InvariantOracle() {
  // Release the singleton hook slots we claimed so the watched objects can
  // outlive the oracle without dangling callbacks.
  if (sim_ != nullptr) {
    sim_->setPostEventHook(nullptr);
  }
  if (net_ != nullptr) {
    net_->setDeliveryObserver(nullptr);
  }
  if (injector_ != nullptr) {
    injector_->setObserver(nullptr);
  }
}

SimTime InvariantOracle::now() const {
  return sim_ != nullptr ? sim_->now() : SimTime::zero();
}

void InvariantOracle::violate(const char* invariant, std::string detail) {
  ++violation_count_;
  if (recorded_.size() < config_.max_recorded) {
    recorded_.push_back({invariant, detail, now()});
  }
  if (config_.abort_on_violation) {
    std::fprintf(stderr, "invariant violated [%s] at t=%.6f ms: %s\n",
                 invariant, now().ms(), detail.c_str());
    std::abort();
  }
}

void InvariantOracle::watch(sim::Simulator& sim) {
  RTDRM_ASSERT_MSG(sim_ == nullptr, "oracle already watches a simulator");
  sim_ = &sim;
  sim.setPostEventHook([this] { sweep(); });
}

void InvariantOracle::watch(const node::Cluster& cluster) {
  clusters_.push_back(&cluster);
  index_inputs_.emplace_back();
}

void InvariantOracle::watch(net::NetworkModel& net) {
  RTDRM_ASSERT_MSG(net_ == nullptr, "oracle already watches a network");
  net_ = &net;
  net.setDeliveryObserver([this](const net::MessageReceipt& r) {
    ++receipts_observed_;
    // The observer contract: it fires *at* the receipt's delivery time, so
    // a lost or duplicated frame can never surface a receipt early or late.
    if (sim_ != nullptr) {
      ++checks_run_;
      if (std::abs(r.delivered.ms() - sim_->now().ms()) >
          config_.tolerance_ms) {
        violate("receipt-delivery-time",
                "receipt delivered stamp " + std::to_string(r.delivered.ms()) +
                    " ms observed at " + std::to_string(sim_->now().ms()) +
                    " ms");
      }
    }
    checkReceipt(r);
  });
}

void InvariantOracle::watch(const core::WorkloadLedger& ledger) {
  ledgers_.push_back(&ledger);
}

void InvariantOracle::watch(core::ResourceManager& manager) {
  managers_.push_back(&manager);
  shadow_placements_.push_back(manager.runner().placement());
  verdicts_.emplace_back();
  manager.attachObserver(*this);
}

void InvariantOracle::watch(fault::FaultInjector& injector) {
  RTDRM_ASSERT_MSG(injector_ == nullptr,
                   "oracle already watches a fault injector");
  injector_ = &injector;
  injector.setObserver(this);
}

void InvariantOracle::watch(const core::ManagementPlane& plane) {
  RTDRM_ASSERT_MSG(plane_ == nullptr,
                   "oracle already watches a management plane");
  plane_ = &plane;
}

std::string InvariantOracle::report() const {
  std::ostringstream os;
  os << violation_count_ << " violation(s), " << checks_run_
     << " checks run\n";
  for (const InvariantViolation& v : recorded_) {
    os << "  [" << v.invariant << "] t=" << v.at.ms() << " ms: " << v.detail
       << "\n";
  }
  if (violation_count_ > recorded_.size()) {
    os << "  ... " << (violation_count_ - recorded_.size())
       << " more (recording capped)\n";
  }
  return os.str();
}

// ---- granular checks ------------------------------------------------------

void InvariantOracle::checkBudgets(const core::EqfBudgets& budgets,
                                   double deadline_ms) {
  ++checks_run_;
  const double tol = config_.tolerance_ms;

  double sum = 0.0;
  for (std::size_t i = 0; i < budgets.subtask_ms.size(); ++i) {
    if (budgets.subtask_ms[i] < -tol) {
      violate("eqf-budget-nonneg",
              "subtask " + std::to_string(i) + " budget " +
                  std::to_string(budgets.subtask_ms[i]) + " ms < 0");
    }
    sum += budgets.subtask_ms[i];
  }
  for (std::size_t i = 0; i < budgets.message_ms.size(); ++i) {
    if (budgets.message_ms[i] < -tol) {
      violate("eqf-budget-nonneg",
              "message " + std::to_string(i) + " budget " +
                  std::to_string(budgets.message_ms[i]) + " ms < 0");
    }
    sum += budgets.message_ms[i];
  }
  // §4.1 / eqs. 1-2: the sub-deadlines partition the end-to-end deadline.
  // Scale the tolerance with the deadline so ms-vs-seconds scenarios get
  // commensurate slack for rounding.
  const double sum_tol = tol * std::max(1.0, std::abs(deadline_ms));
  if (std::abs(sum - deadline_ms) > sum_tol) {
    violate("eqf-budget-sum",
            "budgets sum to " + std::to_string(sum) + " ms, deadline is " +
                std::to_string(deadline_ms) + " ms");
  }

  // Absolute sub-deadlines are the prefix sums: nondecreasing, ending at D.
  double prev = 0.0;
  for (std::size_t i = 0; i < budgets.subtask_abs_ms.size(); ++i) {
    if (budgets.subtask_abs_ms[i] < prev - tol) {
      violate("eqf-abs-monotone",
              "absolute deadline of subtask " + std::to_string(i) +
                  " precedes its predecessor's");
    }
    prev = budgets.subtask_abs_ms[i];
  }
  if (!budgets.subtask_abs_ms.empty() &&
      std::abs(budgets.subtask_abs_ms.back() - deadline_ms) > sum_tol) {
    violate("eqf-abs-final",
            "last absolute sub-deadline " +
                std::to_string(budgets.subtask_abs_ms.back()) +
                " ms != end-to-end deadline " + std::to_string(deadline_ms) +
                " ms");
  }
}

void InvariantOracle::checkPlacement(const task::Placement& placement,
                                     const task::TaskSpec& spec,
                                     std::size_t cluster_size) {
  ++checks_run_;
  if (placement.stageCount() != spec.stageCount()) {
    violate("placement-shape",
            "placement has " + std::to_string(placement.stageCount()) +
                " stages, spec has " + std::to_string(spec.stageCount()));
    return;
  }
  for (std::size_t s = 0; s < placement.stageCount(); ++s) {
    const task::ReplicaSet& rs = placement.stage(s);
    if (rs.size() == 0) {
      violate("replica-set-empty",
              "stage " + std::to_string(s) + " has no replicas");
      continue;
    }
    if (!spec.subtasks[s].replicable && rs.size() != 1) {
      violate("replica-nonreplicable",
              "non-replicable stage " + std::to_string(s) + " has " +
                  std::to_string(rs.size()) + " replicas");
    }
    for (std::size_t i = 0; i < rs.nodes().size(); ++i) {
      const ProcessorId p = rs.nodes()[i];
      if (cluster_size > 0 && p.value >= cluster_size) {
        violate("replica-host-exists",
                "stage " + std::to_string(s) + " replica on node " +
                    std::to_string(p.value) + ", cluster has " +
                    std::to_string(cluster_size) + " nodes");
      }
      for (std::size_t j = i + 1; j < rs.nodes().size(); ++j) {
        if (rs.nodes()[j] == p) {
          violate("replica-set-duplicate",
                  "stage " + std::to_string(s) + " hosts node " +
                      std::to_string(p.value) + " twice");
        }
      }
    }
    checkReplicaSetIndex(rs, s, cluster_size);
  }
}

void InvariantOracle::checkReplicaSetIndex(const task::ReplicaSet& rs,
                                           std::size_t stage,
                                           std::size_t cluster_size) {
  ++checks_run_;
  // The membership bitset and the ordered node vector must describe the
  // same set: contains() true for every listed node, false for every other
  // id the cluster could offer.
  std::size_t probe_range = cluster_size;
  for (const ProcessorId p : rs.nodes()) {
    probe_range = std::max<std::size_t>(probe_range, p.value + 2);
  }
  std::vector<bool>& listed = listed_scratch_;
  listed.assign(probe_range, false);
  for (const ProcessorId p : rs.nodes()) {
    if (p.value < probe_range) {
      listed[p.value] = true;
    }
  }
  for (std::uint32_t i = 0; i < probe_range; ++i) {
    if (rs.contains(ProcessorId{i}) != listed[i]) {
      violate("replica-set-index",
              "stage " + std::to_string(stage) + ": contains(" +
                  std::to_string(i) + ") = " +
                  (listed[i] ? "false" : "true") +
                  " disagrees with the ordered node vector");
    }
  }
}

void InvariantOracle::checkReceipt(const net::MessageReceipt& receipt) {
  ++checks_run_;
  const double tol = config_.tolerance_ms;
  // Causality: a message cannot hit the wire before it was enqueued, nor be
  // delivered before its first bit was sent.
  if (receipt.bufferDelay().ms() < -tol) {
    violate("receipt-buffer-causality",
            "first bit at " + std::to_string(receipt.first_bit.ms()) +
                " ms precedes enqueue at " +
                std::to_string(receipt.enqueued.ms()) + " ms");
  }
  if (receipt.transferDelay().ms() < -tol) {
    violate("receipt-transfer-causality",
            "delivery at " + std::to_string(receipt.delivered.ms()) +
                " ms precedes first bit at " +
                std::to_string(receipt.first_bit.ms()) + " ms");
  }
  if (sim_ != nullptr && receipt.enqueued.ms() > sim_->now().ms() + tol) {
    violate("receipt-from-future",
            "receipt enqueued at " + std::to_string(receipt.enqueued.ms()) +
                " ms, now is " + std::to_string(sim_->now().ms()) + " ms");
  }
  if (receipt.payload < Bytes::zero()) {
    violate("receipt-payload-nonneg", "negative payload");
  }
}

void InvariantOracle::checkLedger(const core::WorkloadLedger& ledger) {
  ++checks_run_;
  double sum = 0.0;
  for (std::size_t t = 0; t < ledger.taskCount(); ++t) {
    const double posted =
        ledger.posted(core::WorkloadLedger::TaskId{t}).count();
    if (posted < 0.0) {
      violate("ledger-post-nonneg",
              "task " + ledger.taskName(core::WorkloadLedger::TaskId{t}) +
                  " posted " + std::to_string(posted) + " tracks");
    }
    sum += posted;
  }
  const double total = ledger.total().count();
  if (std::abs(total - sum) > config_.tolerance_ms * std::max(1.0, sum)) {
    violate("ledger-total",
            "ledger total " + std::to_string(total) +
                " != sum of posts " + std::to_string(sum));
  }
}

void InvariantOracle::checkClusterUtilization(const node::Cluster& cluster) {
  ++checks_run_;
  for (std::uint32_t i = 0; i < cluster.size(); ++i) {
    const double u = cluster.lastUtilization(ProcessorId{i}).value();
    if (u < 0.0 || u > 1.0 || !std::isfinite(u)) {
      violate("utilization-range",
              "node " + std::to_string(i) + " utilization " +
                  std::to_string(u) + " outside [0, 1]");
    }
  }
}

void InvariantOracle::checkUtilizationIndex(const node::Cluster& cluster) {
  ++checks_run_;
  // Reference pmin scan (the seed's rule: strictly-lower utilization wins,
  // ties to the lower id), with an optional one-node exclusion. Down nodes
  // are masked from the index, so the reference skips them too.
  const auto scan_min =
      [&cluster](std::uint32_t skip) -> std::optional<ProcessorId> {
    std::optional<ProcessorId> best;
    double best_u = 0.0;
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      if (i == skip || !cluster.isUp(ProcessorId{i})) {
        continue;
      }
      const double u = cluster.lastUtilization(ProcessorId{i}).value();
      if (!best || u < best_u) {
        best = ProcessorId{i};
        best_u = u;
      }
    }
    return best;
  };

  const auto indexed = cluster.leastUtilized({});
  const auto reference = scan_min(0xffffffffu);
  if (indexed != reference) {
    violate("utilization-index-pmin",
            "leastUtilized({}) = " +
                (indexed ? std::to_string(indexed->value) : "none") +
                ", reference scan says " +
                (reference ? std::to_string(reference->value) : "none"));
  }
  // Excluding the minimum forces the index down its tie-break/exclusion
  // path; the result must be the scan's runner-up.
  if (indexed.has_value() && cluster.upCount() > 1) {
    const auto second = cluster.leastUtilized({*indexed});
    const auto second_ref = scan_min(indexed->value);
    if (second != second_ref) {
      violate("utilization-index-exclusion",
              "leastUtilized(exclude pmin) = " +
                  (second ? std::to_string(second->value) : "none") +
                  ", reference scan says " +
                  (second_ref ? std::to_string(second_ref->value) : "none"));
    }
  }

  // The Fig.-5 growth order: a cursor with no initial exclusions must
  // enumerate every *up* node exactly once, in the same sequence that
  // repeated leastUtilized() calls with a growing exclusion set produce.
  {
    auto cursor = cluster.utilizationCursor({});
    std::vector<ProcessorId>& grown = grown_scratch_;
    grown.clear();
    bool order_ok = true;
    while (const auto got = cursor.next()) {
      const auto ref = cluster.leastUtilized(grown);
      if (!ref || *ref != *got) {
        violate("utilization-index-cursor",
                "cursor yield " + std::to_string(grown.size()) + " = " +
                    std::to_string(got->value) + ", repeated leastUtilized " +
                    "says " + (ref ? std::to_string(ref->value) : "none"));
        order_ok = false;
        break;
      }
      grown.push_back(*got);
    }
    if (order_ok && grown.size() != cluster.upCount()) {
      violate("utilization-index-cursor",
              "cursor enumerated " + std::to_string(grown.size()) + " of " +
                  std::to_string(cluster.upCount()) + " up nodes");
    }
  }

  // The Fig.-7 candidate set at the paper's UT = 20%: the pruned-DFS path
  // must reproduce the scan's ascending-id set.
  const Utilization ut = Utilization::percent(20.0);
  std::vector<ProcessorId>& ref_below = below_scratch_;
  ref_below.clear();
  for (std::uint32_t i = 0; i < cluster.size(); ++i) {
    if (cluster.isUp(ProcessorId{i}) &&
        cluster.lastUtilization(ProcessorId{i}).value() < ut.value()) {
      ref_below.push_back(ProcessorId{i});
    }
  }
  if (cluster.belowUtilization(ut) != ref_below) {
    violate("utilization-index-below",
            "belowUtilization(20%) disagrees with the reference scan (" +
                std::to_string(ref_below.size()) + " reference candidates)");
  }
}

void InvariantOracle::sweepUtilizationIndex(const node::Cluster& cluster,
                                            IndexInputs& inputs) {
  // Compare and refresh the input copy in one pass. Whatever is refreshed
  // here is only trusted after a clean full check below.
  bool changed = !inputs.clean ||
                 inputs.index_enabled != cluster.utilizationIndexEnabled() ||
                 inputs.rebuilds != cluster.indexRebuilds() ||
                 inputs.nodes.size() != cluster.size();
  inputs.nodes.resize(cluster.size());
  for (std::uint32_t i = 0; i < cluster.size(); ++i) {
    const IndexInputs::Node now{
        std::bit_cast<std::uint64_t>(
            cluster.lastUtilization(ProcessorId{i}).value()),
        cluster.isUp(ProcessorId{i})};
    if (inputs.nodes[i] != now) {
      inputs.nodes[i] = now;
      changed = true;
    }
  }
  if (!changed) {
    // The heap is only written by rebuildIndex(), which bumps
    // indexRebuilds(), and a rebuild is a pure function of the inputs
    // compared above: every query would answer as it did in the last
    // clean check, against reference scans of the same inputs.
    ++checks_run_;
    return;
  }
  const std::uint64_t before = violation_count_;
  checkUtilizationIndex(cluster);
  inputs.index_enabled = cluster.utilizationIndexEnabled();
  // After the check: its own queries may have triggered the lazy rebuild.
  inputs.rebuilds = cluster.indexRebuilds();
  inputs.clean = violation_count_ == before;
}

void InvariantOracle::checkRecord(const task::PeriodRecord& record) {
  ++checks_run_;
  // True-time causality only: measured_latency is stamped with per-node
  // clocks whose skew can legitimately make it negative.
  if (record.finish.ms() < record.release.ms() - config_.tolerance_ms) {
    violate("record-causality",
            "period " + std::to_string(record.period_index) +
                " finished at " + std::to_string(record.finish.ms()) +
                " ms, released at " + std::to_string(record.release.ms()) +
                " ms");
  }
  for (std::size_t s = 0; s < record.stages.size(); ++s) {
    const task::StageRecord& st = record.stages[s];
    if (!st.completed) {
      continue;
    }
    if (st.end.ms() < st.start.ms() - config_.tolerance_ms) {
      violate("stage-causality",
              "stage " + std::to_string(s) + " ends before it starts");
    }
    if (st.replicas == 0) {
      violate("stage-replicas",
              "completed stage " + std::to_string(s) + " ran 0 replicas");
    }
    if (st.worst_exec.ms() < -config_.tolerance_ms ||
        st.worst_msg.ms() < -config_.tolerance_ms) {
      violate("stage-latency-nonneg",
              "stage " + std::to_string(s) + " has negative worst-case");
    }
  }
}

void InvariantOracle::checkActions(const std::vector<core::Action>& actions,
                                   const task::TaskSpec& spec) {
  ++checks_run_;
  for (const core::Action& a : actions) {
    if (a.stage >= spec.stageCount()) {
      violate("action-stage-range",
              "action targets stage " + std::to_string(a.stage) +
                  " of a " + std::to_string(spec.stageCount()) +
                  "-stage task");
      continue;
    }
    // §4.1: only replicable subtasks become replication or shutdown
    // candidates.
    if (!spec.subtasks[a.stage].replicable) {
      violate("action-replicable-only",
              "action targets non-replicable stage " +
                  std::to_string(a.stage));
    }
  }
}

void InvariantOracle::checkAllocation(const core::Allocator& allocator,
                                      const core::AllocationContext& ctx,
                                      std::size_t stage,
                                      core::AllocStatus status,
                                      const task::ReplicaSet& rs) {
  ++checks_run_;
  if (status != core::AllocStatus::kSuccess) {
    return;
  }
  const auto* predictive =
      dynamic_cast<const core::PredictiveAllocator*>(&allocator);
  if (predictive == nullptr) {
    return;  // Fig. 7 accepts on a utilization heuristic, not a forecast.
  }
  // Fig. 5 step 6/7: success means *every* replica's forecast latency fits
  // the stage budget minus the slack reserve. Re-derive the acceptance
  // condition from the allocator's own forecast function.
  const double budget = ctx.budgets.stageBudgetMs(stage);
  const double limit = budget - ctx.slack_fraction * budget;
  for (const ProcessorId q : rs.nodes()) {
    const Utilization u = ctx.cluster.lastUtilization(q);
    const double forecast =
        predictive->forecastReplicaLatencyOn(ctx, stage, rs.size(), q, u)
            .ms();
    if (forecast > limit + config_.tolerance_ms * std::max(1.0, budget)) {
      violate("predictive-acceptance",
              "accepted replica set for stage " + std::to_string(stage) +
                  " but node " + std::to_string(q.value) + " forecasts " +
                  std::to_string(forecast) + " ms > limit " +
                  std::to_string(limit) + " ms (budget " +
                  std::to_string(budget) + " ms, slack " +
                  std::to_string(ctx.slack_fraction) + ")");
    }
  }
}

void InvariantOracle::checkBusyConservation(const node::Cluster& cluster) {
  ++checks_run_;
  const double tol = config_.tolerance_ms;
  for (const ProcessorId id : cluster.ids()) {
    const node::Processor& p = cluster.processor(id);
    const double busy = p.busyTime().ms();
    const double attributed = p.demandServed().ms() + p.schedOverhead().ms();
    // busyTime() may exceed the attributed accumulators by exactly the
    // in-flight stretch span (non-negative); while idle they must agree.
    const double in_flight = busy - attributed;
    if (in_flight < -tol) {
      violate("busy-conservation",
              "node " + std::to_string(id.value) + " busy " +
                  std::to_string(busy) + " ms < served+overhead " +
                  std::to_string(attributed) + " ms");
    } else if (!p.busy() && in_flight > tol) {
      violate("busy-conservation-idle",
              "idle node " + std::to_string(id.value) + " busy " +
                  std::to_string(busy) + " ms != served+overhead " +
                  std::to_string(attributed) + " ms");
    }
  }
}

void InvariantOracle::checkPeriodBounds(const core::ResourceManager& manager) {
  ++checks_run_;
  const double tol = config_.tolerance_ms;
  const double cur = manager.currentPeriod().ms();
  const double lo = manager.spec().period.ms();
  const double hi = manager.spec().effectiveMaxPeriod().ms();
  if (cur < lo - tol || cur > hi + tol) {
    violate("period-bounds",
            "live period " + std::to_string(cur) +
                " ms outside the elastic bounds [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "] ms");
  }
}

void InvariantOracle::checkDeliveryAccounting() {
  if (net_ == nullptr) {
    return;
  }
  ++checks_run_;
  // The substrate counts a delivery and fires the observer in the same
  // event, so post-event the two tallies always agree — even while frames
  // are being lost (retransmitted) or duplicated (extra wire time only).
  if (net_->messagesDelivered() != receipts_observed_) {
    violate("delivery-accounting",
            "substrate delivered " +
                std::to_string(net_->messagesDelivered()) +
                " message(s), observer saw " +
                std::to_string(receipts_observed_));
  }
}

void InvariantOracle::checkRecoveryDeadlines() {
  if (down_nodes_.empty() || managers_.empty()) {
    return;
  }
  ++checks_run_;
  // Waive while nothing is up: with zero survivors there is no node to
  // re-place replicas onto, so the deadline cannot be met by design.
  if (!clusters_.empty() && clusters_.front()->upCount() == 0) {
    return;
  }
  // Waive while the management plane is headless: node failures queue
  // until the next election (nobody may decide during the gap), so the
  // recovery clock only starts once the decision channel reopens.
  if (plane_ != nullptr && plane_->enabled() && !plane_->decisionsAllowed()) {
    for (DownNode& d : down_nodes_) {
      if (!d.reported) {
        d.since = now();
      }
    }
    return;
  }
  const double grace = config_.recovery_grace_ms;
  for (DownNode& d : down_nodes_) {
    if (d.reported || now().ms() - d.since.ms() <= grace) {
      continue;
    }
    for (core::ResourceManager* m : managers_) {
      const task::Placement& placement = m->runner().placement();
      for (std::size_t s = 0; s < placement.stageCount(); ++s) {
        if (placement.stage(s).contains(d.node)) {
          d.reported = true;
          violate("fault-recovery-deadline",
                  "node " + std::to_string(d.node.value) + " down since " +
                      std::to_string(d.since.ms()) + " ms still hosts stage " +
                      std::to_string(s) + " after " + std::to_string(grace) +
                      " ms grace");
        }
      }
    }
  }
}

void InvariantOracle::checkPlane() {
  if (plane_ == nullptr || !plane_->enabled()) {
    return;
  }
  ++checks_run_;
  // Election uniqueness: at most one endpoint ever believes it is active,
  // and exactly one whenever the decision channel is open.
  const std::size_t active = plane_->activeCount();
  if (active > 1) {
    violate("plane-election-uniqueness",
            std::to_string(active) + " endpoints hold the active role");
  }
  if (plane_->decisionsAllowed() && active != 1) {
    violate("plane-election-uniqueness",
            "decisions allowed with " + std::to_string(active) +
                " active endpoint(s)");
  }
  // Bounded staleness: no summary the active decides on may outlive the
  // configured bound (the plane excuses down origins and grants a
  // one-bound grace after up-edges and elections).
  const double bound_ms = plane_->config().staleness_bound.ms();
  const double worst_ms = plane_->worstViewAgeMs();
  if (worst_ms > bound_ms + config_.tolerance_ms) {
    violate("plane-gossip-staleness",
            "active manager " + std::to_string(plane_->activeManager()) +
                " decides on a summary " + std::to_string(worst_ms) +
                " ms old, bound is " + std::to_string(bound_ms) + " ms");
  }
}

void InvariantOracle::checkDecisionOwnership(const char* hook) {
  if (plane_ == nullptr || !plane_->enabled()) {
    return;
  }
  ++checks_run_;
  // The decision gate must have suppressed this hook: a deposed manager
  // (or a headless plane) may never reshape placements or budgets.
  if (!plane_->decisionsAllowed()) {
    violate("plane-deposed-decision",
            std::string(hook) +
                " fired while no live active manager owns decisions");
  }
}

void InvariantOracle::sweep() {
  for (std::size_t k = 0; k < clusters_.size(); ++k) {
    const node::Cluster& c = *clusters_[k];
    checkClusterUtilization(c);
    sweepUtilizationIndex(c, index_inputs_[k]);
    checkBusyConservation(c);
  }
  for (const core::WorkloadLedger* l : ledgers_) {
    checkLedger(*l);
  }
  checkDeliveryAccounting();
  checkRecoveryDeadlines();
  checkPlane();
  for (core::ResourceManager* m : managers_) {
    checkBudgets(m->budgets(), m->spec().deadline.ms());
    checkPeriodBounds(*m);
    std::size_t cluster_size = 0;
    if (!clusters_.empty()) {
      cluster_size = clusters_.front()->size();
    }
    checkPlacement(m->runner().placement(), m->spec(), cluster_size);
  }
}

// ---- core::ManagerObserver hooks ------------------------------------------

void InvariantOracle::onBudgetsAssigned(const core::ResourceManager& manager,
                                        const core::EqfBudgets& budgets) {
  checkBudgets(budgets, manager.spec().deadline.ms());
}

void InvariantOracle::onMonitorActions(const core::ResourceManager& manager,
                                       const std::vector<core::Action>& actions) {
  checkDecisionOwnership("monitor-actions");
  checkActions(actions, manager.spec());
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    if (managers_[m] != &manager) {
      continue;
    }
    MonitorVerdict& v = verdicts_[m];
    v.recorded = !actions.empty();
    v.pressure = false;
    v.slack = false;
    for (const core::Action& a : actions) {
      (a.kind == core::ActionKind::kReplicate ? v.pressure : v.slack) = true;
    }
    break;
  }
}

void InvariantOracle::onAllocation(const core::ResourceManager& manager,
                                   std::size_t stage, core::AllocStatus status,
                                   const core::AllocationContext& ctx,
                                   const task::ReplicaSet& rs) {
  if (status != core::AllocStatus::kNoChange) {
    ++effective_allocations_observed_;
  }
  checkDecisionOwnership("allocation");
  checkAllocation(manager.allocator(), ctx, stage, status, rs);
}

void InvariantOracle::onPlacementChanged(const core::ResourceManager& manager,
                                         const task::Placement& placement) {
  checkDecisionOwnership("placement-change");
  std::size_t cluster_size = 0;
  if (!clusters_.empty()) {
    cluster_size = clusters_.front()->size();
  }
  checkPlacement(placement, manager.spec(), cluster_size);

  // Diff against the last placement this manager showed us: a node that
  // joined a stage must be up *now*. Stale replicas on a node that died
  // after placement are legal (detection lags the crash); adding new ones
  // there is not — every allocator path reads the masked index.
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    if (managers_[m] != &manager) {
      continue;
    }
    ++checks_run_;
    const task::Placement& previous = shadow_placements_[m];
    const node::Cluster* cluster =
        clusters_.empty() ? nullptr : clusters_.front();
    for (std::size_t s = 0; s < placement.stageCount(); ++s) {
      for (const ProcessorId p : placement.stage(s).nodes()) {
        const bool added = s >= previous.stageCount() ||
                           !previous.stage(s).contains(p);
        if (added && cluster != nullptr && p.value < cluster->size() &&
            !cluster->isUp(p)) {
          violate("replica-on-down-node",
                  "placement change added stage " + std::to_string(s) +
                      " replica on down node " + std::to_string(p.value));
        }
      }
    }
    shadow_placements_[m] = placement;
    // The decision round is over once its placement lands; the verdict
    // must not leak into failure-triggered adjustments between rounds.
    verdicts_[m] = MonitorVerdict{};
    break;
  }
}

void InvariantOracle::onPeriodAdjust(const core::ResourceManager& manager,
                                     SimDuration old_period,
                                     SimDuration new_period, bool dilated) {
  checkDecisionOwnership("period-adjust");
  ++checks_run_;
  // Every adjustment must actually move, in the direction it claims.
  if (dilated ? new_period.ms() <= old_period.ms()
              : new_period.ms() >= old_period.ms()) {
    violate("period-step-direction",
            std::string(dilated ? "dilation" : "contraction") + " moved " +
                std::to_string(old_period.ms()) + " -> " +
                std::to_string(new_period.ms()) + " ms");
  }
  checkPeriodBounds(manager);
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    if (managers_[m] != &manager) {
      continue;
    }
    const MonitorVerdict& v = verdicts_[m];
    // The elastic lever trades rate for capacity: dilating while the
    // monitor's verdict this round was pure slack would slow a task that
    // has headroom to spare. (Failure-triggered dilations arrive between
    // rounds, with no recorded verdict, and are exempt.)
    if (dilated && v.recorded && !v.pressure) {
      violate("period-dilation-under-slack",
              "period dilated to " + std::to_string(new_period.ms()) +
                  " ms while the monitor saw only high-slack candidates");
    }
    // Contractions exist only as the high-slack unwind step.
    if (!dilated && !v.slack) {
      violate("period-contraction-without-slack",
              "period contracted to " + std::to_string(new_period.ms()) +
                  " ms without a high-slack candidate this round");
    }
    break;
  }
}

void InvariantOracle::onPeriodRecord(const core::ResourceManager& manager,
                                     const task::PeriodRecord& record) {
  if (record.missed(manager.spec().deadline)) {
    ++misses_observed_;
  }
  checkRecord(record);
}

// ---- fault::FaultObserver hooks -------------------------------------------

void InvariantOracle::onCrash(ProcessorId node, SimTime at) {
  for (const DownNode& d : down_nodes_) {
    if (d.node == node) {
      violate("fault-double-crash",
              "node " + std::to_string(node.value) +
                  " crashed while already down");
      return;
    }
  }
  down_nodes_.push_back({node, at, false});
}

void InvariantOracle::onRestart(ProcessorId node, SimTime at) {
  (void)at;
  for (std::size_t i = 0; i < down_nodes_.size(); ++i) {
    if (down_nodes_[i].node == node) {
      down_nodes_.erase(down_nodes_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  violate("fault-restart-unknown",
          "node " + std::to_string(node.value) +
              " restarted without a recorded crash");
}

}  // namespace rtdrm::check
