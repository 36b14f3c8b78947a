#include "core/plane.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/manager.hpp"
#include "net/ethernet.hpp"

namespace rtdrm::core {
namespace {

// Deterministic testbed: ideal clocks, free-ish network, no noise (same
// shape as the ResourceManager suite's bed).
struct Bed {
  explicit Bed(std::size_t nodes = 4)
      : cluster(sim, nodes),
        ethernet(sim, nodes, netConfig()),
        clocks(sim, nodes, Xoshiro256(1), idealClocks()) {}

  static net::EthernetConfig netConfig() {
    net::EthernetConfig cfg;
    cfg.host_ns_per_byte = 0.0;
    cfg.propagation = SimDuration::zero();
    return cfg;
  }
  static net::ClockSyncConfig idealClocks() {
    net::ClockSyncConfig cfg;
    cfg.initial_offset_max = SimDuration::zero();
    cfg.drift_ppm_max = 0.0;
    return cfg;
  }
  task::Runtime runtime() {
    return task::Runtime{sim, cluster, ethernet, clocks};
  }

  sim::Simulator sim;
  node::Cluster cluster;
  net::Ethernet ethernet;
  net::ClockFabric clocks;
};

task::TaskSpec spec() {
  task::TaskSpec s;
  s.period = SimDuration::millis(100.0);
  s.deadline = SimDuration::millis(90.0);
  s.subtasks = {
      task::SubtaskSpec{"fixed", task::SubtaskCost{0.0, 1.0}, false, 0.0},
      task::SubtaskSpec{"flex", task::SubtaskCost{0.0, 10.0}, true, 0.0}};
  s.messages = {task::MessageSpec{8.0}};
  s.validate();
  return s;
}

PredictiveModels models() {
  PredictiveModels m;
  regress::ExecLatencyModel fixed;
  fixed.b3 = 1.0;
  regress::ExecLatencyModel flex;
  flex.b3 = 10.0;
  m.exec = {fixed, flex};
  m.comm.buffer.k_ms_per_hundred = 0.05;
  m.comm.link_rate = BitRate::mbps(100.0);
  return m;
}

std::unique_ptr<ResourceManager> makeManager(Bed& bed,
                                             const task::TaskSpec& s) {
  ManagerConfig cfg;
  cfg.d_init = DataSize::tracks(100.0);
  return std::make_unique<ResourceManager>(
      bed.runtime(), s, task::Placement({ProcessorId{0}, ProcessorId{1}}),
      [](std::uint64_t) { return DataSize::tracks(100.0); },
      std::make_unique<PredictiveAllocator>(models()), models(), cfg,
      Xoshiro256(7));
}

PlaneConfig planeConfig(std::size_t managers) {
  PlaneConfig cfg;
  cfg.managers = managers;
  cfg.gossip_interval = SimDuration::millis(20.0);
  cfg.staleness_bound = SimDuration::millis(80.0);
  return cfg;
}

TEST(ManagementPlane, SingleManagerIsInert) {
  Bed bed;
  ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster, planeConfig(1));
  EXPECT_FALSE(plane.enabled());
  EXPECT_TRUE(plane.decisionsAllowed());
  EXPECT_EQ(plane.activeManager(), 0u);
  // start()/stop() schedule nothing and gossip never happens.
  plane.start(bed.sim.now());
  bed.sim.runFor(SimDuration::seconds(1.0));
  plane.stop();
  EXPECT_EQ(plane.gossipRounds(), 0u);
  EXPECT_EQ(plane.gossipMessagesSent(), 0u);
  EXPECT_EQ(bed.ethernet.messagesDelivered(), 0u);
  EXPECT_DOUBLE_EQ(plane.worstViewAgeMs(), 0.0);
}

TEST(ManagementPlane, PartitionsCoverEveryNodeOnce) {
  for (std::size_t nodes = 1; nodes <= 8; ++nodes) {
    Bed bed(nodes);
    for (std::size_t managers = 1; managers <= nodes; ++managers) {
      ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster,
                            planeConfig(managers));
      std::vector<int> owner(nodes, -1);
      for (std::uint32_t m = 0; m < managers; ++m) {
        const auto [lo, hi] = plane.partitionOf(m);
        EXPECT_LT(lo, hi) << "empty partition " << m << " of " << managers
                          << " over " << nodes << " nodes";
        EXPECT_EQ(plane.hostOf(m).value, lo);
        for (std::size_t i = lo; i < hi; ++i) {
          ASSERT_LT(i, nodes);
          EXPECT_EQ(owner[i], -1) << "node " << i << " owned twice";
          owner[i] = static_cast<int>(m);
        }
        // Matches the floor(i*M/N) node -> block map.
        for (std::size_t i = lo; i < hi; ++i) {
          EXPECT_EQ(i * managers / nodes, m);
        }
      }
      for (std::size_t i = 0; i < nodes; ++i) {
        EXPECT_NE(owner[i], -1) << "node " << i << " unowned";
      }
    }
  }
}

TEST(ManagementPlane, GossipKeepsTheActiveViewFresh) {
  Bed bed;
  const auto s = spec();
  auto mgr = makeManager(bed, s);
  ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster, planeConfig(2));
  plane.adopt(*mgr);
  plane.start(bed.sim.now());
  bed.sim.runFor(SimDuration::millis(500.0));
  // First query primes the start-up grace window; once it expires the
  // bound is enforced for real.
  (void)plane.worstViewAgeMs();
  bed.sim.runFor(SimDuration::millis(300.0));

  EXPECT_GT(plane.gossipRounds(), 0u);
  EXPECT_GT(plane.gossipMessagesSent(), 0u);
  EXPECT_GT(plane.summariesApplied(), 0u);
  EXPECT_GT(bed.ethernet.messagesDelivered(), 0u);
  EXPECT_EQ(plane.activeCount(), 1u);
  EXPECT_TRUE(plane.decisionsAllowed());
  // Once past the start-up grace the active's view never outlives the
  // staleness bound.
  EXPECT_LE(plane.worstViewAgeMs(), plane.config().staleness_bound.ms());
  EXPECT_LE(plane.maxStalenessObservedMs(),
            plane.config().staleness_bound.ms());
  plane.stop();
}

TEST(ManagementPlane, ActiveCrashElectsExactlyOneStandby) {
  Bed bed;
  const auto s = spec();
  auto mgr = makeManager(bed, s);
  ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster, planeConfig(2));
  plane.adopt(*mgr);
  // The manager runs so the gossiped summaries carry its live ledger
  // record (100 tracks every period).
  mgr->start(bed.sim.now());
  plane.start(bed.sim.now());

  // Ground truth at 200 ms, detector belief 90 ms later.
  bed.sim.scheduleAt(SimTime::millis(200.0),
                     [&plane] { plane.setManagerUp(0, false); });
  bed.sim.scheduleAt(SimTime::millis(290.0),
                     [&plane] { plane.onManagerSuspected(0); });

  // During the gap: no live active, decisions suppressed.
  bed.sim.runUntil(SimTime::millis(250.0));
  EXPECT_FALSE(plane.decisionsAllowed());
  EXPECT_EQ(plane.activeManager(), 0u);

  bed.sim.runUntil(SimTime::millis(600.0));
  EXPECT_EQ(plane.elections(), 1u);
  EXPECT_EQ(plane.epoch(), 1u);
  EXPECT_EQ(plane.activeManager(), 1u);
  EXPECT_EQ(plane.activeCount(), 1u);
  EXPECT_EQ(plane.roleOf(0), ManagementPlane::Role::kDown);
  EXPECT_EQ(plane.roleOf(1), ManagementPlane::Role::kActive);
  EXPECT_TRUE(plane.decisionsAllowed());
  // Gap accounting: exactly the crash -> election window.
  EXPECT_NEAR(plane.decisionGapMs(), 90.0, 1e-9);
  // The takeover rebuilt its view from gossip, including the ledger record
  // the old active was broadcasting.
  EXPECT_DOUBLE_EQ(plane.rebuiltLedgerTracks(), 100.0);
  mgr->stop();
  plane.stop();
}

TEST(ManagementPlane, StandbyViewConvergesWithinStalenessBound) {
  Bed bed;
  const auto s = spec();
  auto mgr = makeManager(bed, s);
  ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster, planeConfig(2));
  plane.adopt(*mgr);
  mgr->start(bed.sim.now());
  plane.start(bed.sim.now());
  bed.sim.scheduleAt(SimTime::millis(300.0),
                     [&plane] { plane.setManagerUp(0, false); });
  bed.sim.scheduleAt(SimTime::millis(360.0),
                     [&plane] { plane.onManagerSuspected(0); });
  // Run well past the takeover grace: the new active's view (origin 0
  // excused as dead, origin 1 self-refreshing) must satisfy the bound.
  bed.sim.runFor(SimDuration::seconds(1.0));
  EXPECT_EQ(plane.activeManager(), 1u);
  EXPECT_LE(plane.worstViewAgeMs(), plane.config().staleness_bound.ms());
  mgr->stop();
  plane.stop();
}

TEST(ManagementPlane, HeadlessQueuesNodeFailuresUntilReelection) {
  Bed bed;
  const auto s = spec();
  auto mgr = makeManager(bed, s);
  ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster, planeConfig(2));
  plane.adopt(*mgr);
  mgr->start(bed.sim.now());
  plane.start(bed.sim.now());

  bed.sim.scheduleAt(SimTime::millis(100.0), [&plane] {
    plane.setManagerUp(0, false);
    plane.setManagerUp(1, false);
  });
  bed.sim.scheduleAt(SimTime::millis(150.0), [&plane] {
    plane.onManagerSuspected(1);
    plane.onManagerSuspected(0);
  });
  // A node dies while nobody owns decisions: queued, not applied.
  bed.sim.scheduleAt(SimTime::millis(200.0), [&] {
    bed.cluster.setNodeUp(ProcessorId{3}, false);
    plane.handleNodeFailure(ProcessorId{3});
  });
  bed.sim.runUntil(SimTime::millis(250.0));
  EXPECT_EQ(plane.activeManager(), ManagementPlane::kNoManager);
  EXPECT_FALSE(plane.decisionsAllowed());
  EXPECT_EQ(plane.pendingNodeFailures(), 1u);

  // Endpoint 1 restarts and is believed recovered: it takes over and the
  // queued death drains into the manager.
  bed.sim.scheduleAt(SimTime::millis(300.0), [&plane] {
    plane.setManagerUp(1, true);
    plane.onManagerRecovered(1);
  });
  bed.sim.runUntil(SimTime::millis(400.0));
  EXPECT_EQ(plane.activeManager(), 1u);
  EXPECT_EQ(plane.activeCount(), 1u);
  EXPECT_TRUE(plane.decisionsAllowed());
  EXPECT_EQ(plane.pendingNodeFailures(), 0u);
  // Headless gap: crash at 100 ms (ground truth) to takeover at 300 ms.
  EXPECT_NEAR(plane.decisionGapMs(), 200.0, 1e-9);
  EXPECT_EQ(plane.elections(), 1u);
  mgr->stop();
  plane.stop();
}

TEST(ManagementPlane, DecisionGateSuppressesPeriodsDuringGap) {
  Bed bed;
  const auto s = spec();
  auto mgr = makeManager(bed, s);
  ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster, planeConfig(2));
  plane.adopt(*mgr);
  mgr->start(bed.sim.now());
  plane.start(bed.sim.now());
  // Crash at 250 ms, never detected before the end: every later period's
  // monitor/allocator half is gated out.
  bed.sim.scheduleAt(SimTime::millis(250.0),
                     [&plane] { plane.setManagerUp(0, false); });
  bed.sim.runFor(SimDuration::millis(1000.0));
  mgr->stop();
  plane.stop();
  EXPECT_GT(mgr->metrics().suppressed_decision_periods, 0u);
  // The gap closed at stop() and covers the crash -> stop window.
  EXPECT_NEAR(plane.decisionGapMs(), 750.0, 1e-9);
}

TEST(ManagementPlane, RestartedEndpointGossipsButOnlyBeliefElects) {
  Bed bed;
  const auto s = spec();
  auto mgr = makeManager(bed, s);
  ManagementPlane plane(bed.sim, bed.ethernet, bed.cluster, planeConfig(2));
  plane.adopt(*mgr);
  plane.start(bed.sim.now());
  // Standby endpoint 1 crashes and restarts; the belief layer never hears
  // about either. It must keep gossiping after the restart, but roles are
  // untouched and no election happens.
  bed.sim.scheduleAt(SimTime::millis(100.0),
                     [&plane] { plane.setManagerUp(1, false); });
  bed.sim.scheduleAt(SimTime::millis(200.0),
                     [&plane] { plane.setManagerUp(1, true); });
  bed.sim.runFor(SimDuration::millis(600.0));
  EXPECT_EQ(plane.elections(), 0u);
  EXPECT_EQ(plane.activeManager(), 0u);
  EXPECT_EQ(plane.roleOf(1), ManagementPlane::Role::kStandby);
  EXPECT_TRUE(plane.managerUp(1));
  EXPECT_TRUE(plane.decisionsAllowed());
  // No gap: the standby's crash never touched the decision channel.
  EXPECT_DOUBLE_EQ(plane.decisionGapMs(), 0.0);
  plane.stop();
}

using PlaneConfigDeathTest = ::testing::Test;

TEST(PlaneConfigDeathTest, RejectsZeroManagers) {
  PlaneConfig cfg;
  cfg.managers = 0;
  EXPECT_DEATH(cfg.validate(), "plane needs at least one manager");
}

TEST(PlaneConfigDeathTest, RejectsNonPositiveGossipInterval) {
  PlaneConfig cfg;
  cfg.gossip_interval = SimDuration::zero();
  EXPECT_DEATH(cfg.validate(), "gossip interval must be positive");
}

TEST(PlaneConfigDeathTest, RejectsStalenessBoundNotAboveTheInterval) {
  PlaneConfig cfg;
  cfg.staleness_bound = cfg.gossip_interval;
  EXPECT_DEATH(cfg.validate(),
               "staleness bound must exceed the gossip interval");
}

}  // namespace
}  // namespace rtdrm::core
