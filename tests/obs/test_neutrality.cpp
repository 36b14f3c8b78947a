// Observability neutrality: attaching the obs layer must not change a
// single bit of behavior. Proven two ways — byte-identical fuzz digests
// (which fold in every trace event, metric mean, substrate counter, and
// the oracle's check count), and bitwise-equal episode metrics.
#include <gtest/gtest.h>

#include <string>

#include "apps/dynbench.hpp"
#include "check/fuzz.hpp"
#include "experiments/episode.hpp"
#include "obs/obs.hpp"
#include "workload/patterns.hpp"

namespace rtdrm {
namespace {

TEST(ObsNeutrality, FuzzDigestsIdenticalWithObsAttached) {
  check::FuzzSpec caps;
  caps.max_periods = 10;
  const struct {
    std::uint64_t seed;
    bool faults;
  } cases[] = {{1, false}, {2, false}, {11, true}, {12, true}};
  std::uint64_t total_recorded = 0;
  for (const auto& c : cases) {
    const check::FuzzScenario scenario =
        check::makeFuzzScenario(
            c.seed, check::FuzzSpec(caps).set(check::FuzzDim::kFaults,
                                              c.faults));
    for (const check::AllocatorKind kind :
         {check::AllocatorKind::kPredictive,
          check::AllocatorKind::kNonPredictive}) {
      const check::FuzzCaseResult plain = check::runFuzzCase(scenario, kind);
      obs::Observability bundle;
      const check::FuzzCaseResult traced =
          check::runFuzzCase(scenario, kind, &bundle);
      EXPECT_EQ(plain.digest, traced.digest)
          << "seed " << c.seed << " " << check::allocatorKindName(kind)
          << (c.faults ? " +faults" : "")
          << ": attaching obs changed the run digest";
      // Oracle-visible behavior unchanged: same checks, same verdicts.
      EXPECT_EQ(plain.checks, traced.checks);
      EXPECT_EQ(plain.violations, traced.violations);
      EXPECT_TRUE(traced.obs_mismatch.empty()) << traced.obs_mismatch;
      EXPECT_GT(bundle.metrics.size(), 0u);
      // A capped scenario can legitimately stay quiet (no monitor action,
      // no miss), so non-vacuity is asserted across the whole sweep.
      total_recorded += bundle.trace.recorded();
    }
  }
  EXPECT_GT(total_recorded, 0u);
}

TEST(ObsNeutrality, EpisodeMetricsBitwiseEqualWithObsAttached) {
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  core::PredictiveModels models;
  models.exec.resize(spec.stageCount());
  for (std::size_t i = 0; i < spec.stageCount(); ++i) {
    models.exec[i].a3 = spec.subtasks[i].cost.alpha_ms;
    models.exec[i].a2 = spec.subtasks[i].cost.alpha_ms;
    models.exec[i].b3 = spec.subtasks[i].cost.beta_ms;
    models.exec[i].b2 = spec.subtasks[i].cost.beta_ms;
  }
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(8000.0);
  const auto pattern = workload::makeFig8Pattern("triangular", ramp);
  experiments::EpisodeConfig cfg;
  cfg.periods = 20;

  for (const auto algorithm : {experiments::AlgorithmKind::kPredictive,
                               experiments::AlgorithmKind::kNonPredictive}) {
    const auto plain = runEpisode(spec, *pattern, models, algorithm, cfg);

    obs::Observability bundle;
    experiments::EpisodeConfig traced_cfg = cfg;
    traced_cfg.obs = &bundle;
    const auto traced =
        runEpisode(spec, *pattern, models, algorithm, traced_cfg);

    // Bitwise equality — identical runs, not merely statistically close.
    EXPECT_EQ(plain.missed_pct, traced.missed_pct);
    EXPECT_EQ(plain.cpu_pct, traced.cpu_pct);
    EXPECT_EQ(plain.net_pct, traced.net_pct);
    EXPECT_EQ(plain.avg_replicas, traced.avg_replicas);
    EXPECT_EQ(plain.combined, traced.combined);
    EXPECT_EQ(plain.metrics.replicate_actions,
              traced.metrics.replicate_actions);
    EXPECT_EQ(plain.metrics.shutdown_actions, traced.metrics.shutdown_actions);
    EXPECT_EQ(plain.metrics.allocation_failures,
              traced.metrics.allocation_failures);
    EXPECT_EQ(plain.metrics.end_to_end_ms.mean(),
              traced.metrics.end_to_end_ms.mean());
    EXPECT_GT(bundle.trace.recorded(), 0u);
  }
}

}  // namespace
}  // namespace rtdrm
