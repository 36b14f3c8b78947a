// Pinned episode-assembly digests.
//
// Each case runs one episode through the public entry points (runEpisode,
// runMultiTaskEpisode, runTaskSetEpisode) and folds every field of every
// EpisodeResult — the full EpisodeMetrics, the derived percentages and the
// plane outcomes — into one FNV-1a digest over the raw bits. The expected
// values were recorded before the manager / plane / fault start-up was
// shared by all entry points, so any change to what an episode builds, or
// to the order in which it builds, arms, starts, stops and drains it,
// fails here. Models are derived from the specs' own costs, so the digests
// do not depend on the profiling and fitting pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/dynbench.hpp"
#include "experiments/episode.hpp"
#include "experiments/multitask.hpp"
#include "workload/patterns.hpp"

namespace rtdrm::experiments {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(const RunningStats& s) {
    add(static_cast<std::uint64_t>(s.count()));
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

void addResult(Fnv1a& f, const EpisodeResult& r) {
  const core::EpisodeMetrics& m = r.metrics;
  f.add(static_cast<std::uint64_t>(m.missed_deadlines.hits()));
  f.add(static_cast<std::uint64_t>(m.missed_deadlines.total()));
  f.add(m.cpu_utilization);
  f.add(m.net_utilization);
  f.add(m.replicas_per_subtask);
  f.add(m.end_to_end_ms);
  f.add(m.end_to_end_hist.total());
  f.add(m.end_to_end_hist.underflow());
  f.add(m.end_to_end_hist.overflow());
  for (std::size_t i = 0; i < m.end_to_end_hist.bucketCount(); ++i) {
    f.add(m.end_to_end_hist.bucketCount(i));
  }
  f.add(m.replicate_actions);
  f.add(m.shutdown_actions);
  f.add(m.allocation_failures);
  f.add(m.node_failures_handled);
  f.add(m.failover_replacements);
  f.add(m.recovery_allocation_failures);
  f.add(m.suppressed_decision_periods);
  f.add(m.shed_fraction);
  f.add(m.period_scale);
  f.add(m.period_dilations);
  f.add(m.period_contractions);
  for (const core::StageMetrics& st : m.stages) {
    f.add(st.latency_ms);
    f.add(st.replicate_actions);
    f.add(st.shutdown_actions);
  }
  f.add(r.combined);
  f.add(r.missed_pct);
  f.add(r.cpu_pct);
  f.add(r.net_pct);
  f.add(r.avg_replicas);
  f.add(r.decision_gap_ms);
  f.add(r.elections);
  f.add(r.gossip_rounds);
  f.add(r.suppressed_periods);
}

std::uint64_t digestOf(const EpisodeResult& r) {
  Fnv1a f;
  addResult(f, r);
  return f.value();
}

std::uint64_t digestOf(const MultiTaskResult& r) {
  Fnv1a f;
  for (const EpisodeResult& t : r.tasks) {
    addResult(f, t);
  }
  f.add(r.missed_pct);
  f.add(r.cpu_pct);
  f.add(r.net_pct);
  f.add(r.avg_replicas);
  f.add(r.combined);
  return f.value();
}

/// Planning models taken from the spec's own cost coefficients.
core::PredictiveModels costModels(const task::TaskSpec& spec) {
  core::PredictiveModels models;
  models.exec.resize(spec.stageCount());
  for (std::size_t i = 0; i < spec.stageCount(); ++i) {
    regress::ExecLatencyModel& m = models.exec[i];
    m.a3 = spec.subtasks[i].cost.alpha_ms;
    m.a2 = spec.subtasks[i].cost.alpha_ms;
    m.b3 = spec.subtasks[i].cost.beta_ms;
    m.b2 = spec.subtasks[i].cost.beta_ms;
  }
  return models;
}

class EpisodeAssembly : public ::testing::Test {
 protected:
  EpisodeAssembly()
      : spec_(apps::makeAawTaskSpec()),
        models_(costModels(spec_)),
        pattern_(ramp()) {}

  static workload::RampParams ramp() {
    workload::RampParams r;
    r.min_workload = DataSize::tracks(500.0);
    r.max_workload = DataSize::tracks(12000.0);
    r.ramp_periods = 10;
    return r;
  }

  static EpisodeConfig shortConfig() {
    EpisodeConfig cfg;
    cfg.periods = 30;
    cfg.scenario.seed = 11;
    return cfg;
  }

  std::uint64_t episode(const EpisodeConfig& cfg,
                        AlgorithmKind kind = AlgorithmKind::kPredictive) {
    return digestOf(runEpisode(spec_, pattern_, models_, kind, cfg));
  }

  task::TaskSpec spec_;
  core::PredictiveModels models_;
  workload::Triangular pattern_;
};

/// Prints the digest in the form the expectations below are written in,
/// so a deliberate behaviour change can be re-pinned from the log.
#define EXPECT_DIGEST(actual, expected)                                    \
  do {                                                                     \
    const std::uint64_t got = (actual);                                    \
    EXPECT_EQ(got, expected##ULL)                                          \
        << "digest 0x" << std::hex << got << std::dec;                     \
  } while (false)

TEST_F(EpisodeAssembly, BusDefault) {
  EXPECT_DIGEST(episode(shortConfig()), 0xacbcca5f9826cc19);
  EXPECT_DIGEST(episode(shortConfig(), AlgorithmKind::kNonPredictive),
                0x2a02bc7c18a51b69);
}

TEST_F(EpisodeAssembly, PlaneWithManagerCrashAndRestart) {
  EpisodeConfig cfg = shortConfig();
  cfg.plane = core::PlaneConfig::scaledTo(spec_.period, 3);
  cfg.manager_crash_at_period = 10;
  cfg.manager_fault_target = 0;
  cfg.manager_restart_after_periods = 5.0;
  const EpisodeResult r =
      runEpisode(spec_, pattern_, models_, AlgorithmKind::kPredictive, cfg);
  EXPECT_GT(r.elections, 0u);
  EXPECT_GT(r.decision_gap_ms, 0.0);
  EXPECT_DIGEST(digestOf(r), 0xa58c00f55f5e4a14);
}

TEST_F(EpisodeAssembly, SwitchedFabric) {
  EpisodeConfig cfg = shortConfig();
  cfg.scenario.net_kind = net::NetKind::kSwitched;
  EXPECT_DIGEST(episode(cfg), 0x1e4fcb483d5e0423);
}

TEST_F(EpisodeAssembly, WorkloadMixes) {
  EpisodeConfig cfg = shortConfig();
  cfg.workload_mix = workload::WorkloadMix::kPareto;
  EXPECT_DIGEST(episode(cfg), 0xad811de062e6d39c);
  cfg.workload_mix = workload::WorkloadMix::kSurge;
  EXPECT_DIGEST(episode(cfg), 0xf1226e890a13ed30);
  cfg.workload_mix = workload::WorkloadMix::kMulti;
  EXPECT_DIGEST(episode(cfg), 0x8ba77f845b26091e);
}

TEST_F(EpisodeAssembly, CostDrift) {
  EpisodeConfig cfg = shortConfig();
  cfg.drift_at_period = 12;
  cfg.drift_cost_scale = 1.6;
  EXPECT_DIGEST(episode(cfg), 0x2cde13e49564f1ae);
}

TEST_F(EpisodeAssembly, ThreeTaskMultiTask) {
  MultiTaskConfig mc;
  mc.episode = shortConfig();
  mc.task_count = 3;
  mc.phase_shift = 7;
  EXPECT_DIGEST(digestOf(runMultiTaskEpisode(spec_, pattern_, models_,
                                             AlgorithmKind::kPredictive, mc)),
                0x1207894542b7337b);
}

TEST_F(EpisodeAssembly, HeterogeneousTaskSet) {
  const task::TaskSpec engage = apps::makeEngagePathSpec();
  const core::PredictiveModels engage_models = costModels(engage);
  const workload::Constant engage_load(DataSize::tracks(1500.0));
  ASSERT_NE(engage.period, spec_.period);
  const std::vector<TaskSetMember> members{
      {engage, &engage_load, &engage_models, 0},
      {spec_, &pattern_, &models_, 4}};
  EXPECT_DIGEST(digestOf(runTaskSetEpisode(members,
                                           AlgorithmKind::kNonPredictive,
                                           shortConfig(),
                                           SimDuration::seconds(24.0))),
                0x1ce627b21c4d5e1d);
}

}  // namespace
}  // namespace rtdrm::experiments
