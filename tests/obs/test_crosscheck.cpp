// Three-source accounting cross-check over the scenario fuzzer.
//
// For every seed, the same run is tallied three independent ways — the obs
// trace/registry, the manager's EpisodeMetrics, and the invariant oracle's
// own hook counters — and runFuzzCase reconciles them (misses, effective
// replications, shutdowns, allocation failures, delivery receipts). A
// mismatch means an instrumentation site was dropped, double-counted, or
// drifted from the behavior it claims to describe.
#include <gtest/gtest.h>

#include "check/fuzz.hpp"
#include "obs/obs.hpp"

namespace rtdrm::check {
namespace {

TEST(ObsCrossCheck, FiftySeedsReconcileAcrossThreeSources) {
  FuzzSpec spec;
  spec.max_periods = 8;  // keep 200 full-stack runs affordable
  std::uint64_t growth_checks_seen = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const bool with_faults = seed % 2 == 1;
    spec.set(FuzzDim::kFaults, with_faults);
    const FuzzScenario scenario = makeFuzzScenario(seed, spec);
    for (const AllocatorKind kind :
         {AllocatorKind::kPredictive, AllocatorKind::kNonPredictive}) {
      obs::Observability bundle;
      const FuzzCaseResult r = runFuzzCase(scenario, kind, &bundle);
      EXPECT_TRUE(r.obs_mismatch.empty())
          << "seed " << seed << " " << allocatorKindName(kind)
          << (with_faults ? " +faults" : "") << ":\n"
          << r.obs_mismatch;
      EXPECT_GT(bundle.metrics.size(), 0u);
      if (kind == AllocatorKind::kPredictive) {
        growth_checks_seen += bundle.trace.count(obs::RecordKind::kGrowthCheck);
        // Every growth-loop verdict carries both forecast terms and the
        // limit it was judged against (eq. 3 eex, eqs. 5-6 ecd).
        bundle.trace.forEach([&](const obs::TraceRecord& rec) {
          if (rec.kind != obs::RecordKind::kGrowthCheck) {
            return;
          }
          EXPECT_GE(rec.a, 0.0) << "eex forecast missing";
          EXPECT_GE(rec.b, 0.0) << "ecd forecast missing";
          EXPECT_GT(rec.c, 0.0) << "deadline-slack limit missing";
        });
      }
    }
  }
  // The sweep must actually have exercised the predictive growth loop.
  EXPECT_GT(growth_checks_seen, 100u);
}

}  // namespace
}  // namespace rtdrm::check
