#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/allocators.hpp"
#include "core/eqf.hpp"
#include "core/ledger.hpp"

namespace rtdrm::check {
namespace {

task::TaskSpec twoStageSpec() {
  task::TaskSpec spec;
  spec.name = "T";
  spec.period = SimDuration::millis(200.0);
  spec.deadline = SimDuration::millis(150.0);
  spec.subtasks.resize(2);
  spec.subtasks[0].name = "a";
  spec.subtasks[0].cost.beta_ms = 1.0;
  spec.subtasks[0].replicable = false;
  spec.subtasks[1].name = "b";
  spec.subtasks[1].cost.beta_ms = 1.0;
  spec.subtasks[1].replicable = true;
  spec.messages.resize(1);
  return spec;
}

TEST(InvariantOracle, CleanEqfBudgetsPass) {
  InvariantOracle oracle;
  const core::EqfBudgets b = core::assignEqf({{10.0, 40.0}, {5.0}, 990.0});
  oracle.checkBudgets(b, 990.0);
  EXPECT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.checksRun(), 1u);
}

TEST(InvariantOracle, DetectsBudgetSumDrift) {
  InvariantOracle oracle;
  core::EqfBudgets b = core::assignEqf({{10.0, 40.0}, {5.0}, 990.0});
  b.subtask_ms[0] += 5.0;  // budgets no longer tile the deadline
  oracle.checkBudgets(b, 990.0);
  EXPECT_FALSE(oracle.ok());
  ASSERT_EQ(oracle.recorded().size(), 1u);
  EXPECT_EQ(oracle.recorded()[0].invariant, "eqf-budget-sum");
}

TEST(InvariantOracle, DetectsNegativeBudget) {
  InvariantOracle oracle;
  core::EqfBudgets b = core::assignEqf({{10.0, 40.0}, {5.0}, 990.0});
  b.subtask_ms[1] = -1.0;
  oracle.checkBudgets(b, 990.0);
  EXPECT_GE(oracle.violationCount(), 1u);
  EXPECT_EQ(oracle.recorded()[0].invariant, "eqf-budget-nonneg");
}

TEST(InvariantOracle, DetectsNonMonotoneAbsoluteDeadlines) {
  InvariantOracle oracle;
  core::EqfBudgets b = core::assignEqf({{10.0, 40.0}, {5.0}, 990.0});
  std::swap(b.subtask_abs_ms[0], b.subtask_abs_ms[1]);
  oracle.checkBudgets(b, 990.0);
  EXPECT_FALSE(oracle.ok());
}

TEST(InvariantOracle, CleanPlacementPasses) {
  InvariantOracle oracle;
  const task::TaskSpec spec = twoStageSpec();
  const task::Placement placement({ProcessorId{0}, ProcessorId{1}});
  oracle.checkPlacement(placement, spec, 2);
  EXPECT_TRUE(oracle.ok());
}

TEST(InvariantOracle, DetectsReplicaOnMissingHost) {
  InvariantOracle oracle;
  const task::TaskSpec spec = twoStageSpec();
  const task::Placement placement({ProcessorId{0}, ProcessorId{5}});
  oracle.checkPlacement(placement, spec, 2);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "replica-host-exists");
}

TEST(InvariantOracle, DetectsReplicasOnNonReplicableStage) {
  InvariantOracle oracle;
  const task::TaskSpec spec = twoStageSpec();
  task::Placement placement({ProcessorId{0}, ProcessorId{1}});
  placement.stage(0).add(ProcessorId{1});  // stage 0 is not replicable
  oracle.checkPlacement(placement, spec, 2);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "replica-nonreplicable");
}

TEST(InvariantOracle, DetectsPlacementShapeMismatch) {
  InvariantOracle oracle;
  const task::TaskSpec spec = twoStageSpec();
  const task::Placement placement({ProcessorId{0}});  // one stage, spec has 2
  oracle.checkPlacement(placement, spec, 2);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "placement-shape");
}

TEST(InvariantOracle, CleanReceiptPasses) {
  InvariantOracle oracle;
  const net::MessageReceipt receipt{SimTime::millis(1.0), SimTime::millis(2.0),
                                    SimTime::millis(3.0), Bytes::of(100.0)};
  oracle.checkReceipt(receipt);
  EXPECT_TRUE(oracle.ok());
}

TEST(InvariantOracle, DetectsDeliveryBeforeSend) {
  InvariantOracle oracle;
  // First bit "on the wire" before the message was enqueued.
  const net::MessageReceipt receipt{SimTime::millis(10.0),
                                    SimTime::millis(5.0),
                                    SimTime::millis(20.0), Bytes::of(100.0)};
  oracle.checkReceipt(receipt);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "receipt-buffer-causality");
}

TEST(InvariantOracle, DetectsDeliveryBeforeFirstBit) {
  InvariantOracle oracle;
  const net::MessageReceipt receipt{SimTime::millis(1.0), SimTime::millis(9.0),
                                    SimTime::millis(5.0), Bytes::of(100.0)};
  oracle.checkReceipt(receipt);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "receipt-transfer-causality");
}

TEST(InvariantOracle, LedgerTotalsMatchPosts) {
  InvariantOracle oracle;
  core::WorkloadLedger ledger;
  const auto a = ledger.registerTask("A");
  const auto b = ledger.registerTask("B");
  ledger.post(a, DataSize::tracks(100.0));
  ledger.post(b, DataSize::tracks(250.0));
  oracle.checkLedger(ledger);
  EXPECT_TRUE(oracle.ok());
}

TEST(InvariantOracle, DetectsNegativeLedgerPost) {
  InvariantOracle oracle;
  core::WorkloadLedger ledger;
  const auto a = ledger.registerTask("A");
  ledger.post(a, DataSize::tracks(-5.0));
  oracle.checkLedger(ledger);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "ledger-post-nonneg");
}

TEST(InvariantOracle, ClusterUtilizationStaysInRange) {
  sim::Simulator sim;
  node::Cluster cluster(sim, 3);
  InvariantOracle oracle;
  oracle.watch(cluster);
  cluster.sampleUtilization();
  oracle.sweep();
  EXPECT_TRUE(oracle.ok());
  EXPECT_GE(oracle.checksRun(), 1u);
}

// A cluster under background load with distinct per-node targets, so
// every sample moves the utilizations the index is keyed on.
class IndexMemo : public ::testing::Test {
 protected:
  IndexMemo() : cluster_(sim_, 6) {
    cluster_.attachBackgroundLoad(RngStreams(11));
    for (std::uint32_t i = 0; i < cluster_.size(); ++i) {
      cluster_.backgroundLoad(ProcessorId{i})
          .setTarget(Utilization::fraction(0.1 * (i + 1)));
    }
    oracle_.watch(cluster_);
    sim_.runFor(SimDuration::millis(200.0));
    cluster_.sampleUtilization();
  }

  /// Sweeps once; true iff the sweep replayed the index queries.
  bool sweepQueries() {
    const std::uint64_t before = cluster_.cursorAdvances();
    oracle_.sweep();
    return cluster_.cursorAdvances() > before;
  }

  sim::Simulator sim_;
  node::Cluster cluster_;
  InvariantOracle oracle_;
};

TEST_F(IndexMemo, SweepCountsTheIndexCheckWhetherOrNotInputsChanged) {
  std::uint64_t before = oracle_.checksRun();
  oracle_.sweep();
  const std::uint64_t per_sweep = oracle_.checksRun() - before;
  EXPECT_GE(per_sweep, 3u);
  for (int round = 0; round < 4; ++round) {
    if (round % 2 == 1) {
      sim_.runFor(SimDuration::millis(50.0));
      cluster_.sampleUtilization();
    }
    before = oracle_.checksRun();
    oracle_.sweep();
    EXPECT_EQ(oracle_.checksRun() - before, per_sweep) << "round " << round;
  }
  EXPECT_TRUE(oracle_.ok()) << oracle_.report();
}

TEST_F(IndexMemo, UnchangedInputsSkipTheIndexQueries) {
  EXPECT_TRUE(sweepQueries());
  EXPECT_FALSE(sweepQueries());
  // Simulated time and background jobs move on, but nothing the index
  // reads changes until the next sample.
  sim_.runFor(SimDuration::millis(30.0));
  EXPECT_FALSE(sweepQueries());
  EXPECT_TRUE(oracle_.ok()) << oracle_.report();
}

TEST_F(IndexMemo, EveryIndexInputChangeForcesAFullRecheck) {
  ASSERT_TRUE(sweepQueries());
  ASSERT_FALSE(sweepQueries());

  sim_.runFor(SimDuration::millis(50.0));
  cluster_.sampleUtilization();
  EXPECT_TRUE(sweepQueries()) << "sampleUtilization";
  EXPECT_FALSE(sweepQueries());

  cluster_.applyGossipSample(ProcessorId{2}, Utilization::fraction(0.05));
  EXPECT_TRUE(sweepQueries()) << "applyGossipSample";
  EXPECT_FALSE(sweepQueries());

  cluster_.setNodeUp(ProcessorId{3}, false);
  EXPECT_TRUE(sweepQueries()) << "setNodeUp(down)";
  EXPECT_FALSE(sweepQueries());
  cluster_.setNodeUp(ProcessorId{3}, true);
  EXPECT_TRUE(sweepQueries()) << "setNodeUp(up)";
  EXPECT_FALSE(sweepQueries());

  cluster_.setUtilizationIndexEnabled(false);
  EXPECT_TRUE(sweepQueries()) << "index disabled";
  EXPECT_FALSE(sweepQueries());
  cluster_.setUtilizationIndexEnabled(true);
  EXPECT_TRUE(sweepQueries()) << "index enabled";
  EXPECT_FALSE(sweepQueries());

  // A gossip that republishes the same value changes no input, but the
  // rebuild another query then triggers is still re-verified.
  cluster_.applyGossipSample(ProcessorId{2}, Utilization::fraction(0.05));
  EXPECT_FALSE(sweepQueries()) << "same-value gossip";
  const std::uint64_t rebuilds = cluster_.indexRebuilds();
  (void)cluster_.leastUtilized({});
  ASSERT_GT(cluster_.indexRebuilds(), rebuilds);
  EXPECT_TRUE(sweepQueries()) << "index rebuilt outside the oracle";
  EXPECT_FALSE(sweepQueries());
  EXPECT_TRUE(oracle_.ok()) << oracle_.report();
}

TEST_F(IndexMemo, DirectIndexChecksAlwaysQuery) {
  oracle_.sweep();
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t before = cluster_.cursorAdvances();
    oracle_.checkUtilizationIndex(cluster_);
    EXPECT_GT(cluster_.cursorAdvances(), before) << "call " << i;
  }
  EXPECT_TRUE(oracle_.ok()) << oracle_.report();
}

TEST(InvariantOracle, BusyConservationHoldsMidAndPostStretch) {
  sim::Simulator sim;
  node::Cluster cluster(sim, 2);
  InvariantOracle oracle;
  oracle.watch(cluster);
  node::Processor& cpu = cluster.processor(ProcessorId{0});
  cpu.submit(node::Job{SimDuration::millis(3.0), nullptr, "a"});
  cpu.submit(node::Job{SimDuration::millis(2.0), nullptr, "b"});
  // Mid-stretch: busyTime may exceed served+overhead by the in-flight span
  // only.
  sim.runUntil(SimTime::millis(1.5));
  oracle.checkBusyConservation(cluster);
  // Idle: the law must hold exactly on every node (including the one that
  // never ran anything).
  sim.runAll();
  oracle.checkBusyConservation(cluster);
  EXPECT_TRUE(oracle.ok()) << oracle.report();
  EXPECT_GE(oracle.checksRun(), 2u);
}

TEST(InvariantOracle, DetectsPeriodFinishBeforeRelease) {
  InvariantOracle oracle;
  task::PeriodRecord record;
  record.release = SimTime::millis(100.0);
  record.finish = SimTime::millis(50.0);
  record.completed = true;
  oracle.checkRecord(record);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "record-causality");
}

TEST(InvariantOracle, DetectsActionOnNonReplicableStage) {
  InvariantOracle oracle;
  const task::TaskSpec spec = twoStageSpec();
  oracle.checkActions({{0, core::ActionKind::kReplicate}}, spec);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "action-replicable-only");
}

TEST(InvariantOracle, AcceptsActionOnReplicableStage) {
  InvariantOracle oracle;
  const task::TaskSpec spec = twoStageSpec();
  oracle.checkActions({{1, core::ActionKind::kReplicate}}, spec);
  EXPECT_TRUE(oracle.ok());
}

TEST(InvariantOracle, DetectsPredictiveAcceptanceBeyondForecastLimit) {
  sim::Simulator sim;
  node::Cluster cluster(sim, 3);
  const task::TaskSpec spec = twoStageSpec();
  const core::EqfBudgets budgets =
      core::assignEqf({{10.0, 10.0}, {1.0}, 100.0});

  core::PredictiveModels models;
  models.exec.resize(2);
  models.exec[0].b3 = 100.0;  // 100 ms per hundred tracks: cannot fit
  models.exec[1].b3 = 100.0;
  const core::PredictiveAllocator allocator(models);

  const core::AllocationContext ctx{spec,    cluster,
                                    DataSize::tracks(1000.0), budgets,
                                    0.2,     DataSize::zero()};
  const task::ReplicaSet rs(ProcessorId{0});

  InvariantOracle oracle;
  // A "successful" allocation whose own forecast busts the limit must be
  // flagged — this is the Fig.-5 acceptance condition.
  oracle.checkAllocation(allocator, ctx, 0, core::AllocStatus::kSuccess, rs);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.recorded()[0].invariant, "predictive-acceptance");

  // The same report with kFailure is consistent: nothing was accepted.
  InvariantOracle oracle2;
  oracle2.checkAllocation(allocator, ctx, 0, core::AllocStatus::kFailure, rs);
  EXPECT_TRUE(oracle2.ok());
}

TEST(InvariantOracle, RealPredictiveDecisionsSatisfyTheirOwnForecast) {
  sim::Simulator sim;
  node::Cluster cluster(sim, 4);
  cluster.sampleUtilization();
  const task::TaskSpec spec = twoStageSpec();
  const core::EqfBudgets budgets =
      core::assignEqf({{10.0, 10.0}, {1.0}, 100.0});

  core::PredictiveModels models;
  models.exec.resize(2);
  models.exec[0].b3 = 1.0;
  models.exec[1].b3 = 1.0;
  core::PredictiveAllocator allocator(models);

  const core::AllocationContext ctx{spec,    cluster,
                                    DataSize::tracks(1000.0), budgets,
                                    0.2,     DataSize::zero()};
  task::ReplicaSet rs(ProcessorId{0});
  const core::AllocStatus status = allocator.replicate(ctx, 1, rs);

  InvariantOracle oracle;
  oracle.checkAllocation(allocator, ctx, 1, status, rs);
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(InvariantOracle, NonPredictiveAllocationsAreNotForecastChecked) {
  sim::Simulator sim;
  node::Cluster cluster(sim, 3);
  const task::TaskSpec spec = twoStageSpec();
  const core::EqfBudgets budgets = core::assignEqf({{10.0, 10.0}, {1.0}, 30.0});
  const core::NonPredictiveAllocator allocator;
  const core::AllocationContext ctx{spec,    cluster,
                                    DataSize::tracks(5000.0), budgets,
                                    0.2,     DataSize::zero()};
  const task::ReplicaSet rs(ProcessorId{0});
  InvariantOracle oracle;
  oracle.checkAllocation(allocator, ctx, 0, core::AllocStatus::kSuccess, rs);
  EXPECT_TRUE(oracle.ok());
}

TEST(InvariantOracle, RecordingIsBoundedButCountingIsNot) {
  OracleConfig config;
  config.max_recorded = 2;
  InvariantOracle oracle(config);
  const net::MessageReceipt bad{SimTime::millis(10.0), SimTime::millis(5.0),
                                SimTime::millis(20.0), Bytes::of(1.0)};
  for (int i = 0; i < 5; ++i) {
    oracle.checkReceipt(bad);
  }
  EXPECT_EQ(oracle.violationCount(), 5u);
  EXPECT_EQ(oracle.recorded().size(), 2u);
  EXPECT_NE(oracle.report().find("3 more"), std::string::npos);
}

TEST(InvariantOracle, ReportNamesTheInvariant) {
  InvariantOracle oracle;
  core::EqfBudgets b = core::assignEqf({{10.0}, {}, 100.0});
  b.subtask_ms[0] = 42.0;
  oracle.checkBudgets(b, 100.0);
  EXPECT_NE(oracle.report().find("eqf-budget-sum"), std::string::npos);
}

TEST(InvariantOracleDeathTest, AbortModeDiesOnFirstViolation) {
  OracleConfig config;
  config.abort_on_violation = true;
  const net::MessageReceipt bad{SimTime::millis(10.0), SimTime::millis(5.0),
                                SimTime::millis(20.0), Bytes::of(1.0)};
  EXPECT_DEATH(
      {
        InvariantOracle oracle(config);
        oracle.checkReceipt(bad);
      },
      "invariant violated");
}

}  // namespace
}  // namespace rtdrm::check
