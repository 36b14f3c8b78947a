// Golden decision-trace regression test.
//
// Runs one fixed-seed triangular episode with synthetic (cost-derived)
// models and compares the decision-audit projection — kind, stage, node,
// accept/reject verdict, and integer counts only, never raw floats or
// timestamps — against the checked-in golden file. Any change to the
// decision *sequence* of the Fig.-5/Fig.-7 loops fails loudly with a
// line-level diff; FP-formatting or timing-neutral refactors do not.
//
// Regenerate after an intentional behavior change with:
//   scripts/regen_golden_trace.sh
// (equivalently: RTDRM_REGEN_GOLDEN=1 ./test_obs \
//    --gtest_filter='GoldenTrace.*')
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/dynbench.hpp"
#include "experiments/episode.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "workload/patterns.hpp"

#ifndef RTDRM_TEST_DATA_DIR
#error "RTDRM_TEST_DATA_DIR must point at tests/obs (set by CMake)"
#endif

namespace rtdrm {
namespace {

std::string goldenPath() {
  return std::string(RTDRM_TEST_DATA_DIR) + "/golden/decision_trace.txt";
}

std::string planeGoldenPath() {
  return std::string(RTDRM_TEST_DATA_DIR) + "/golden/decision_trace_plane.txt";
}

/// The pinned episode: AAW task, triangular pattern, fixed seed, models
/// derived from the spec's own costs (no profiling/fitting — the golden
/// sequence must not depend on the stochastic fitting pipeline).
std::vector<std::string> runGoldenEpisode(obs::Observability& bundle) {
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  core::PredictiveModels models;
  models.exec.resize(spec.stageCount());
  for (std::size_t i = 0; i < spec.stageCount(); ++i) {
    regress::ExecLatencyModel& m = models.exec[i];
    m.a3 = spec.subtasks[i].cost.alpha_ms;
    m.a2 = spec.subtasks[i].cost.alpha_ms;
    m.b3 = spec.subtasks[i].cost.beta_ms;
    m.b2 = spec.subtasks[i].cost.beta_ms;
  }

  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(500.0);
  ramp.max_workload = DataSize::tracks(16000.0);
  ramp.ramp_periods = 14;
  const auto pattern = workload::makeFig8Pattern("triangular", ramp);

  experiments::EpisodeConfig cfg;
  cfg.periods = 32;
  cfg.scenario.seed = 7;
  cfg.obs = &bundle;
  runEpisode(spec, *pattern, models, experiments::AlgorithmKind::kPredictive,
             cfg);
  return obs::decisionAuditLines(bundle.trace.snapshot());
}

/// The failover-plane variant of the pinned episode: same task, pattern,
/// models and seed, but run under a 2-manager management plane whose
/// active crashes at period 10 and restarts 8 periods later. The
/// projection therefore pins the failover lifecycle — manager-down,
/// election, suppressed periods, decision provenance — on top of the
/// usual growth/threshold sequence.
std::vector<std::string> runPlaneGoldenEpisode(obs::Observability& bundle) {
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  core::PredictiveModels models;
  models.exec.resize(spec.stageCount());
  for (std::size_t i = 0; i < spec.stageCount(); ++i) {
    regress::ExecLatencyModel& m = models.exec[i];
    m.a3 = spec.subtasks[i].cost.alpha_ms;
    m.a2 = spec.subtasks[i].cost.alpha_ms;
    m.b3 = spec.subtasks[i].cost.beta_ms;
    m.b2 = spec.subtasks[i].cost.beta_ms;
  }

  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(500.0);
  ramp.max_workload = DataSize::tracks(16000.0);
  ramp.ramp_periods = 14;
  const auto pattern = workload::makeFig8Pattern("triangular", ramp);

  experiments::EpisodeConfig cfg;
  cfg.periods = 32;
  cfg.scenario.seed = 7;
  cfg.obs = &bundle;
  cfg.plane = core::PlaneConfig::scaledTo(spec.period, 2);
  cfg.manager_crash_at_period = 10;
  cfg.manager_fault_target = 0;
  cfg.manager_restart_after_periods = 8.0;
  runEpisode(spec, *pattern, models, experiments::AlgorithmKind::kPredictive,
             cfg);
  return obs::decisionAuditLines(bundle.trace.snapshot());
}

/// Shared regen-or-diff tail: with RTDRM_REGEN_GOLDEN set rewrites `path`;
/// otherwise compares line by line and fails at the first divergence.
void checkAgainstGolden(const std::string& path,
                        const std::vector<std::string>& actual);

std::vector<std::string> readLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream f(path);
  if (!f) {
    return lines;
  }
  std::string line;
  while (std::getline(f, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(GoldenTrace, DecisionAuditMatchesGoldenFile) {
  obs::Observability bundle(1u << 18);
  const std::vector<std::string> actual = runGoldenEpisode(bundle);
  // The projection must be complete (no ring wrap) and non-trivial, and
  // must exercise the growth loop in both verdict directions — otherwise
  // the golden file pins nothing worth pinning.
  ASSERT_EQ(bundle.trace.overwritten(), 0u);
  ASSERT_GT(actual.size(), 50u);
  bool saw_start = false;
  bool saw_accept = false;
  for (const std::string& line : actual) {
    saw_start = saw_start || line.rfind("growth-start", 0) == 0;
    saw_accept = saw_accept ||
                 (line.rfind("growth-check", 0) == 0 &&
                  line.find(" accept") != std::string::npos);
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_accept);

  checkAgainstGolden(goldenPath(), actual);
}

void checkAgainstGolden(const std::string& path,
                        const std::vector<std::string>& actual) {
  if (std::getenv("RTDRM_REGEN_GOLDEN") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f) << "cannot write " << path;
    for (const std::string& line : actual) {
      f << line << "\n";
    }
    std::cout << "[regenerated " << path << ": " << actual.size()
              << " lines]\n";
    return;
  }

  const std::vector<std::string> expected = readLines(path);
  ASSERT_FALSE(expected.empty())
      << "golden file missing or empty: " << path
      << "\nregenerate with scripts/regen_golden_trace.sh";

  // Line-level diff: report the first divergence with context instead of
  // dumping two multi-thousand-line vectors at each other.
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] != actual[i]) {
      std::ostringstream diff;
      diff << "decision trace diverged at line " << (i + 1) << ":\n";
      for (std::size_t j = i >= 2 ? i - 2 : 0; j < i; ++j) {
        diff << "    " << expected[j] << "\n";
      }
      diff << "  - " << expected[i] << "   (golden)\n";
      diff << "  + " << actual[i] << "   (this run)\n";
      diff << "if the behavior change is intentional, regenerate with "
              "scripts/regen_golden_trace.sh";
      FAIL() << diff.str();
    }
  }
  EXPECT_EQ(expected.size(), actual.size())
      << "decision trace " << (actual.size() > expected.size() ? "grew"
                                                               : "shrank")
      << " (golden " << expected.size() << " lines, this run "
      << actual.size()
      << "); first extra line:\n  "
      << (actual.size() > expected.size() ? actual[n] : expected[n])
      << "\nif intentional, regenerate with scripts/regen_golden_trace.sh";
}

TEST(GoldenTrace, PlaneFailoverDecisionAuditMatchesGoldenFile) {
  obs::Observability bundle(1u << 18);
  const std::vector<std::string> actual = runPlaneGoldenEpisode(bundle);
  ASSERT_EQ(bundle.trace.overwritten(), 0u);
  ASSERT_GT(actual.size(), 50u);
  // The failover lifecycle must actually appear — a fixture without a
  // crash, an election, and provenance stamps pins nothing new.
  bool saw_down = false;
  bool saw_election = false;
  bool saw_owner = false;
  for (const std::string& line : actual) {
    saw_down = saw_down || line.rfind("manager-down", 0) == 0;
    saw_election = saw_election || line.rfind("election", 0) == 0;
    saw_owner = saw_owner || line.rfind("decision-owner", 0) == 0;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_election);
  EXPECT_TRUE(saw_owner);
  checkAgainstGolden(planeGoldenPath(), actual);
}

TEST(GoldenTrace, PlaneFailoverProjectionIsDeterministicAcrossRuns) {
  obs::Observability a(1u << 18);
  obs::Observability b(1u << 18);
  EXPECT_EQ(runPlaneGoldenEpisode(a), runPlaneGoldenEpisode(b));
}

TEST(GoldenTrace, ProjectionIsDeterministicAcrossRuns) {
  obs::Observability a(1u << 18);
  obs::Observability b(1u << 18);
  EXPECT_EQ(runGoldenEpisode(a), runGoldenEpisode(b));
}

}  // namespace
}  // namespace rtdrm
