#include "experiments/multitask.hpp"

#include <gtest/gtest.h>

#include "apps/dynbench.hpp"
#include "experiments/model_store.hpp"

namespace rtdrm::experiments {
namespace {

class MultiTaskTest : public ::testing::Test {
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

  static MultiTaskConfig config(std::size_t tasks) {
    MultiTaskConfig cfg;
    cfg.episode.periods = 48;
    cfg.task_count = tasks;
    cfg.phase_shift = 15;
    return cfg;
  }

  static task::TaskSpec* spec_;
  static FittedModelSet* fitted_;
};

task::TaskSpec* MultiTaskTest::spec_ = nullptr;
FittedModelSet* MultiTaskTest::fitted_ = nullptr;

TEST_F(MultiTaskTest, SingleTaskMatchesPlainEpisodeShape) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(6000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult multi = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(1));
  ASSERT_EQ(multi.tasks.size(), 1u);
  EpisodeConfig single_cfg;
  single_cfg.periods = 48;
  const EpisodeResult single = runEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, single_cfg);
  // Same substrate, same episode length; means should be close (the
  // multi-task path differs only in ledger plumbing and placement offsets).
  EXPECT_NEAR(multi.missed_pct, single.missed_pct, 5.0);
  EXPECT_NEAR(multi.avg_replicas, single.avg_replicas, 0.6);
}

TEST_F(MultiTaskTest, TwoTasksProduceTwoMetricSets) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(5000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult r = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(2));
  ASSERT_EQ(r.tasks.size(), 2u);
  for (const auto& t : r.tasks) {
    EXPECT_GE(t.metrics.missed_deadlines.total(), 45u);
    EXPECT_GT(t.cpu_pct, 0.0);
    EXPECT_GE(t.avg_replicas, 1.0);
  }
  // The aggregate is the mean of per-task values.
  EXPECT_NEAR(r.combined,
              (r.tasks[0].combined + r.tasks[1].combined) / 2.0, 1e-9);
}

TEST_F(MultiTaskTest, InterferenceRaisesLoadVsSingleTask) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(6000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult one = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(1));
  const MultiTaskResult two = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(2));
  EXPECT_GT(two.cpu_pct, one.cpu_pct * 1.3);
  EXPECT_GT(two.net_pct, one.net_pct * 1.3);
}

TEST_F(MultiTaskTest, DeterministicForSameSeed) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(5000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult a = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kNonPredictive, config(2));
  const MultiTaskResult b = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kNonPredictive, config(2));
  EXPECT_DOUBLE_EQ(a.combined, b.combined);
  EXPECT_DOUBLE_EQ(a.missed_pct, b.missed_pct);
}

TEST_F(MultiTaskTest, HeterogeneousTaskSetRuns) {
  const task::TaskSpec engage = apps::makeEngagePathSpec();
  const task::TaskSpec surveil = apps::makeSurveillancePathSpec();
  ModelFitConfig mc = defaultModelFitConfig();
  mc.exec.data_sizes = {DataSize::tracks(500.0), DataSize::tracks(1500.0),
                        DataSize::tracks(3000.0), DataSize::tracks(4500.0)};
  mc.exec.samples_per_point = 3;
  mc.comm.workload_levels = {DataSize::tracks(1000.0),
                             DataSize::tracks(4000.0),
                             DataSize::tracks(8000.0)};
  mc.comm.periods_per_level = 6;
  const auto f_engage = fitAllModels(engage, mc);
  const auto f_surveil = fitAllModels(surveil, mc);

  const workload::Constant e_load(DataSize::tracks(1500.0));
  const workload::Constant s_load(DataSize::tracks(2000.0));
  const std::vector<TaskSetMember> members{
      {engage, &e_load, &f_engage.models, 0},
      {surveil, &s_load, &f_surveil.models, 0}};
  const MultiTaskResult r = runTaskSetEpisode(
      members, AlgorithmKind::kPredictive, {}, SimDuration::seconds(20.0));
  ASSERT_EQ(r.tasks.size(), 2u);
  // Engage releases at 2 Hz, Surveillance at 0.5 Hz: period counts differ
  // accordingly over the shared horizon.
  EXPECT_GT(r.tasks[0].metrics.missed_deadlines.total(),
            3 * r.tasks[1].metrics.missed_deadlines.total());
  for (const auto& t : r.tasks) {
    EXPECT_LT(t.missed_pct, 30.0);
  }
}

TEST_F(MultiTaskTest, ThreeTasksStillSchedulable) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(4000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult r = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(3));
  ASSERT_EQ(r.tasks.size(), 3u);
  EXPECT_LT(r.missed_pct, 40.0);
}

}  // namespace
}  // namespace rtdrm::experiments
