// Cross-product sanity matrix: every Fig.-8 pattern under every allocator
// (with and without online refinement) must produce well-formed, bounded,
// deterministic metrics. Catches regressions any single-scenario test
// would miss.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/dynbench.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"

namespace rtdrm::experiments {
namespace {

// The pattern is a std::string, not a const char*, so the ctest name
// prints the pattern rather than an address.
using Param = std::tuple<std::string /*pattern*/, int /*algorithm*/,
                         bool /*refit*/>;

class EpisodeMatrix : public ::testing::TestWithParam<Param> {
 protected:
  static void SetUpTestSuite() {
    spec_ = new task::TaskSpec(apps::makeAawTaskSpec());
    ModelFitConfig cfg = defaultModelFitConfig();
    cfg.exec.samples_per_point = 3;
    fitted_ = new FittedModelSet(fitAllModels(*spec_, cfg));
  }
  static void TearDownTestSuite() {
    delete fitted_;
    delete spec_;
  }
  static task::TaskSpec* spec_;
  static FittedModelSet* fitted_;
};

task::TaskSpec* EpisodeMatrix::spec_ = nullptr;
FittedModelSet* EpisodeMatrix::fitted_ = nullptr;

TEST_P(EpisodeMatrix, MetricsWellFormedAndDeterministic) {
  const auto [pattern_name, algo_idx, refit] = GetParam();
  const auto kind = static_cast<AlgorithmKind>(algo_idx);

  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(9000.0);
  const auto pattern =
      workload::makeFig8Pattern(pattern_name, ramp);

  EpisodeConfig cfg;
  cfg.periods = 30;
  cfg.manager.online_refit = refit;
  if (pattern_name == "decreasing") {
    cfg.manager.d_init = ramp.max_workload;
  }

  const EpisodeResult a = runEpisode(*spec_, *pattern, fitted_->models,
                                     kind, cfg);
  const EpisodeResult b = runEpisode(*spec_, *pattern, fitted_->models,
                                     kind, cfg);

  // Well-formed.
  EXPECT_GE(a.missed_pct, 0.0);
  EXPECT_LE(a.missed_pct, 100.0);
  EXPECT_GT(a.cpu_pct, 0.0);
  EXPECT_LE(a.cpu_pct, 100.0);
  EXPECT_GE(a.net_pct, 0.0);
  EXPECT_LE(a.net_pct, 100.0);
  EXPECT_GE(a.avg_replicas, 1.0);
  EXPECT_LE(a.avg_replicas, 6.0);
  EXPECT_GE(a.metrics.missed_deadlines.total(), 28u);
  EXPECT_EQ(a.metrics.stages.size(), spec_->stageCount());
  // Combined metric composed from its parts.
  EXPECT_NEAR(a.combined,
              a.metrics.missedRatio() + a.metrics.cpu_utilization.mean() +
                  a.metrics.net_utilization.mean() + a.avg_replicas / 6.0,
              1e-9);
  // Deterministic.
  EXPECT_DOUBLE_EQ(a.combined, b.combined);
  EXPECT_DOUBLE_EQ(a.missed_pct, b.missed_pct);
  EXPECT_DOUBLE_EQ(a.avg_replicas, b.avg_replicas);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EpisodeMatrix,
    ::testing::Combine(::testing::Values("increasing", "decreasing",
                                         "triangular"),
                       ::testing::Values(0, 1),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == 0 ? "_pred" : "_nonpred") +
             (std::get<2>(info.param) ? "_refit" : "_static");
    });

}  // namespace
}  // namespace rtdrm::experiments
