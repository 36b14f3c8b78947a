#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rtdrm::check {
namespace {

TEST(MakeFuzzScenario, IsDeterministicPerSeed) {
  const FuzzScenario a = makeFuzzScenario(7);
  const FuzzScenario b = makeFuzzScenario(7);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.workload_tracks, b.workload_tracks);
  EXPECT_EQ(a.background_targets, b.background_targets);
  EXPECT_EQ(a.coresident_tracks, b.coresident_tracks);
}

TEST(MakeFuzzScenario, DifferentSeedsDiffer) {
  const FuzzScenario a = makeFuzzScenario(1);
  const FuzzScenario b = makeFuzzScenario(2);
  EXPECT_NE(a.summary(), b.summary());
}

TEST(MakeFuzzScenario, GeneratesValidBoundedScenarios) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario s = makeFuzzScenario(seed);
    EXPECT_GE(s.node_count, 2u);
    EXPECT_LE(s.node_count, 8u);
    EXPECT_GE(s.spec.stageCount(), 2u);
    EXPECT_LE(s.spec.stageCount(), 6u);
    EXPECT_GE(s.periods, 8u);
    EXPECT_LE(s.periods, 40u);
    EXPECT_LE(s.spec.deadline.ms(), s.spec.period.ms());
    bool any_replicable = false;
    for (const auto& st : s.spec.subtasks) {
      any_replicable = any_replicable || st.replicable;
    }
    EXPECT_TRUE(any_replicable) << "seed " << seed;
    for (const double w : s.workload_tracks) {
      EXPECT_GT(w, 0.0) << "zero workload would break EQF's contract";
    }
    EXPECT_EQ(s.models.exec.size(), s.spec.stageCount());
  }
}

TEST(MakeFuzzScenario, SubtaskCapTruncatesWithoutChangingOtherDraws) {
  const FuzzScenario full = makeFuzzScenario(11);
  FuzzSpec shrink;
  shrink.max_subtasks = 2;
  const FuzzScenario capped = makeFuzzScenario(11, shrink);
  EXPECT_EQ(capped.spec.stageCount(), 2u);
  // Caps truncate after the draws: everything not capped is identical.
  EXPECT_EQ(capped.spec.period.ms(), full.spec.period.ms());
  EXPECT_EQ(capped.spec.deadline.ms(), full.spec.deadline.ms());
  EXPECT_EQ(capped.node_count, full.node_count);
  EXPECT_EQ(capped.periods, full.periods);
  EXPECT_EQ(capped.workload_tracks, full.workload_tracks);
  EXPECT_EQ(capped.spec.subtasks[0].cost.beta_ms,
            full.spec.subtasks[0].cost.beta_ms);
}

TEST(MakeFuzzScenario, PeriodCapShortensHorizon) {
  FuzzSpec shrink;
  shrink.max_periods = 5;
  const FuzzScenario s = makeFuzzScenario(11, shrink);
  EXPECT_EQ(s.periods, 5u);
}

TEST(MakeFuzzScenario, FlattenYieldsConstantWorkload) {
  FuzzSpec shrink;
  shrink.flatten_workload = true;
  const FuzzScenario s = makeFuzzScenario(11, shrink);
  for (const double w : s.workload_tracks) {
    EXPECT_DOUBLE_EQ(w, s.workload_tracks.front());
  }
}

TEST(MakeFuzzScenario, CapKeepsAReplicableStage) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    FuzzSpec shrink;
    shrink.max_subtasks = 2;
    const FuzzScenario s = makeFuzzScenario(seed, shrink);
    bool any_replicable = false;
    for (const auto& st : s.spec.subtasks) {
      any_replicable = any_replicable || st.replicable;
    }
    EXPECT_TRUE(any_replicable) << "seed " << seed;
  }
}

FuzzSpec only(FuzzDim d) { return FuzzSpec{}.set(d, true); }

TEST(MakeFuzzScenario, SchedDimensionIsAppendOnly) {
  // The scheduler draw is appended after every other draw: the base
  // scenario of a seed is byte-identical with and without the dimension.
  bool any_non_rr = false;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario base = makeFuzzScenario(seed);
    const FuzzScenario sched = makeFuzzScenario(seed, only(FuzzDim::kSched));
    any_non_rr = any_non_rr || sched.sched != node::SchedPolicy::kRoundRobin;
    EXPECT_EQ(base.workload_tracks, sched.workload_tracks);
    EXPECT_EQ(base.node_count, sched.node_count);
    EXPECT_EQ(base.spec.period.ms(), sched.spec.period.ms());
    EXPECT_EQ(base.sched, node::SchedPolicy::kRoundRobin);
  }
  EXPECT_TRUE(any_non_rr) << "25 seeds never drew a non-RR policy";
}

TEST(MakeFuzzScenario, PeriodAdjustDimensionIsAppendOnly) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario base = makeFuzzScenario(seed);
    const FuzzScenario elastic =
        makeFuzzScenario(seed, only(FuzzDim::kPeriodAdjust));
    EXPECT_TRUE(elastic.manager.allow_period_adjust);
    EXPECT_GT(elastic.spec.max_period, elastic.spec.period);
    EXPECT_LE(elastic.spec.max_period.ms(), elastic.spec.period.ms() * 2.5);
    EXPECT_EQ(base.workload_tracks, elastic.workload_tracks);
    EXPECT_EQ(base.spec.period.ms(), elastic.spec.period.ms());
    EXPECT_FALSE(base.manager.allow_period_adjust);
    EXPECT_EQ(base.spec.max_period, SimDuration::zero());
  }
}

/// The fields a dimension drawn after the base scenario must leave alone.
void expectSameBase(const FuzzScenario& base, const FuzzScenario& grown) {
  EXPECT_EQ(base.node_count, grown.node_count);
  EXPECT_EQ(base.periods, grown.periods);
  EXPECT_EQ(base.spec.stageCount(), grown.spec.stageCount());
  EXPECT_EQ(base.spec.period.ms(), grown.spec.period.ms());
  EXPECT_EQ(base.spec.deadline.ms(), grown.spec.deadline.ms());
  for (std::size_t i = 0; i < base.spec.stageCount(); ++i) {
    EXPECT_EQ(base.spec.subtasks[i].cost.beta_ms,
              grown.spec.subtasks[i].cost.beta_ms);
  }
  EXPECT_EQ(base.background_targets, grown.background_targets);
  ASSERT_EQ(base.background_steps.size(), grown.background_steps.size());
  for (std::size_t i = 0; i < base.background_steps.size(); ++i) {
    EXPECT_EQ(base.background_steps[i].period,
              grown.background_steps[i].period);
    EXPECT_EQ(base.background_steps[i].target,
              grown.background_steps[i].target);
  }
}

TEST(MakeFuzzScenario, NetTopologyDimensionIsAppendOnly) {
  bool any_switched = false;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario base = makeFuzzScenario(seed);
    const FuzzScenario grown =
        makeFuzzScenario(seed, only(FuzzDim::kNetTopology));
    expectSameBase(base, grown);
    EXPECT_EQ(base.workload_tracks, grown.workload_tracks);
    EXPECT_EQ(base.net_kind, net::NetKind::kBus);
    any_switched = any_switched || grown.net_kind == net::NetKind::kSwitched;
  }
  EXPECT_TRUE(any_switched) << "25 seeds never drew a switched fabric";
}

TEST(MakeFuzzScenario, WorkloadMixDimensionIsAppendOnly) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario base = makeFuzzScenario(seed);
    const FuzzScenario grown =
        makeFuzzScenario(seed, only(FuzzDim::kWorkloadMix));
    expectSameBase(base, grown);
    EXPECT_EQ(base.workload_mix, workload::WorkloadMix::kPaper);
    EXPECT_NE(grown.workload_mix, workload::WorkloadMix::kPaper);
  }
}

TEST(RunFuzzSeed, SchedAndPeriodAdjustSeedsRunClean) {
  const FuzzSpec spec =
      only(FuzzDim::kSched).set(FuzzDim::kPeriodAdjust, true);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const FuzzOutcome out = runFuzzSeed(seed, spec);
    EXPECT_FALSE(out.failed()) << "seed " << seed << ": " << out.detail;
    EXPECT_GT(out.checks, 0u);
  }
}

TEST(FuzzSpec, PositionalFormsMatchTheMask) {
  // perfbench calls the positional-bool forwarders with every dimension
  // on; they must build the very scenario the mask API builds.
  const FuzzSpec all{FuzzSpec::kAllDims};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const FuzzScenario mask = makeFuzzScenario(seed, all);
    const FuzzScenario positional =
        makeFuzzScenario(seed, {}, true, true, true, true, true, true);
    EXPECT_EQ(mask.summary(), positional.summary()) << "seed " << seed;
    EXPECT_EQ(runFuzzCase(mask, AllocatorKind::kPredictive).digest,
              runFuzzCase(positional, AllocatorKind::kPredictive).digest)
        << "seed " << seed;
  }
  FuzzSpec short_all = all;
  short_all.max_periods = 3;
  const FuzzOutcome by_mask = runFuzzSeed(1, short_all);
  const FuzzOutcome by_bools = runFuzzSeed(1, {.max_periods = 3}, true, {},
                                           true, true, true, true, true);
  EXPECT_EQ(by_mask.checks, by_bools.checks);
  EXPECT_EQ(by_mask.violations, by_bools.violations);
  EXPECT_EQ(by_mask.detail, by_bools.detail);
}

TEST(TablePattern, HoldsLastLevelBeyondTable) {
  const TablePattern p({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(p.at(0).count(), 10.0);
  EXPECT_DOUBLE_EQ(p.at(2).count(), 30.0);
  EXPECT_DOUBLE_EQ(p.at(100).count(), 30.0);
}

TEST(FuzzSpec, CliFlagsRoundTripTheSpec) {
  FuzzSpec s;
  EXPECT_EQ(s.cliFlags(), "");
  s.max_subtasks = 3;
  s.max_periods = 8;
  s.flatten_workload = true;
  EXPECT_EQ(s.cliFlags(), " --max-subtasks=3 --max-periods=8 --flat");
  s.dims = FuzzSpec::kAllDims;
  EXPECT_EQ(s.cliFlags(),
            " --faults --manager-faults --period-adjust --sched"
            " --workload-mix --net-topology --max-subtasks=3"
            " --max-periods=8 --flat");
}

TEST(RunFuzzSeed, CleanSeedsPassBothAllocatorsAndReplay) {
  // A handful of full-stack runs: oracle holds and replays are
  // byte-identical under both allocators.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const FuzzOutcome out = runFuzzSeed(seed);
    EXPECT_FALSE(out.failed()) << "seed " << seed << ": " << out.detail;
    EXPECT_GT(out.checks, 0u);
  }
}

TEST(RunFuzzCase, SameScenarioProducesByteIdenticalDigests) {
  const FuzzScenario s = makeFuzzScenario(5);
  const FuzzCaseResult a = runFuzzCase(s, AllocatorKind::kPredictive);
  const FuzzCaseResult b = runFuzzCase(s, AllocatorKind::kPredictive);
  EXPECT_EQ(a.violations, 0u) << a.report;
  EXPECT_FALSE(a.digest.empty());
  EXPECT_EQ(a.digest, b.digest);
}

TEST(RunFuzzCase, AllocatorsProduceDistinctRuns) {
  // Sanity that the knob matters: the two allocators should not trace
  // identically on a scenario that triggers adaptation.
  const FuzzScenario s = makeFuzzScenario(6);
  const FuzzCaseResult pred = runFuzzCase(s, AllocatorKind::kPredictive);
  const FuzzCaseResult nonp = runFuzzCase(s, AllocatorKind::kNonPredictive);
  EXPECT_NE(pred.digest, nonp.digest);
}

TEST(Minimize, ShrinksToTheFloorWhenEverythingFails) {
  const FuzzSpec minimal =
      minimize(11, FuzzSpec{FuzzSpec::kAllDims},
               [](std::uint64_t, const FuzzSpec&) { return true; });
  const FuzzScenario s = makeFuzzScenario(11, minimal);
  EXPECT_EQ(s.spec.stageCount(), 2u);
  EXPECT_EQ(s.periods, 3u);
  EXPECT_TRUE(minimal.flatten_workload);
  EXPECT_EQ(minimal.dims, 0u);
}

TEST(Minimize, FindsTheBoundaryOfAHorizonPredicate) {
  // Artificial failure: "fails iff the scenario runs more than 12 periods".
  const std::uint64_t seed = 0;
  ASSERT_GT(makeFuzzScenario(seed).periods, 13u);
  const auto fails = [](std::uint64_t s, const FuzzSpec& c) {
    return makeFuzzScenario(s, c).periods > 12;
  };
  ASSERT_TRUE(fails(seed, {}));
  const FuzzSpec minimal = minimize(seed, {}, fails);
  // Greedy halving + decrement lands exactly on the smallest failing
  // horizon; subtask and flatten caps don't affect this predicate so they
  // shrink to their floors too.
  EXPECT_EQ(makeFuzzScenario(seed, minimal).periods, 13u);
  EXPECT_TRUE(fails(seed, minimal));
}

TEST(Minimize, KeepsTheInitialSpecWhenNothingHarsherFails) {
  // Fails only in the initial configuration: no harsher spec fails.
  const FuzzSpec initial{FuzzSpec::kAllDims};
  const auto fails = [&](std::uint64_t, const FuzzSpec& c) {
    return c == initial;
  };
  EXPECT_EQ(minimize(3, initial, fails), initial);
}

TEST(Minimize, DropsDimensionsInTableOrder) {
  // Fails only while manager-faults is on: every other dimension goes, in
  // kFuzzDimensions order, and manager-faults alone is kept.
  std::vector<FuzzSpec> tried;
  const auto fails = [&](std::uint64_t, const FuzzSpec& c) {
    tried.push_back(c);
    return c.has(FuzzDim::kManagerFaults);
  };
  const FuzzSpec minimal = minimize(3, FuzzSpec{FuzzSpec::kAllDims}, fails);
  EXPECT_EQ(minimal.dims, FuzzSpec::bit(FuzzDim::kManagerFaults));

  // The first candidates drop one dimension each: net-topology,
  // workload-mix, sched and period-adjust go; dropping manager-faults
  // passes and is not kept; faults goes.
  const auto drop = [](std::uint32_t m, FuzzDim d) {
    return m & ~FuzzSpec::bit(d);
  };
  std::uint32_t m = FuzzSpec::kAllDims;
  std::vector<std::uint32_t> want;
  for (const FuzzDim d : {FuzzDim::kNetTopology, FuzzDim::kWorkloadMix,
                          FuzzDim::kSched, FuzzDim::kPeriodAdjust}) {
    m = drop(m, d);
    want.push_back(m);
  }
  want.push_back(drop(m, FuzzDim::kManagerFaults));
  want.push_back(drop(m, FuzzDim::kFaults));
  ASSERT_GE(tried.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(tried[i].dims, want[i]) << "candidate " << i;
  }
}

}  // namespace
}  // namespace rtdrm::check
