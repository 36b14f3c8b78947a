// Digest-level determinism of the fuzz stack. A fuzz case is a pure
// function of its scenario: running independent cases concurrently on the
// worker pool (the fuzz_scenarios seed fan-out) must reproduce the serial
// digests byte for byte, and dimensions that are enabled but shrunk away
// must reproduce the baseline digests.
//
// Scenarios are shrink-capped (short horizon, short pipeline) to keep the
// sweeps inside a unit-test budget; the caps truncate the generated
// scenario without changing its draws, so every seed still exercises a
// distinct cluster/workload/schedule shape.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"

namespace rtdrm::check {
namespace {

ShrinkSpec cappedScenario() {
  ShrinkSpec shrink;
  shrink.max_subtasks = 3;
  shrink.max_periods = 6;
  return shrink;
}

AllocatorKind kindFor(std::uint64_t seed) {
  // Alternate allocators so both decision paths get swept.
  return (seed % 2 == 0) ? AllocatorKind::kPredictive
                         : AllocatorKind::kNonPredictive;
}

TEST(FuzzDeterminism, SeedFanOutMatchesSerialDigests) {
  // Every dimension on, including the decentralized plane: cases share no
  // mutable state, so the pool may run them in any order on any thread.
  constexpr std::size_t kSeeds = 8;
  const auto scenarioFor = [](std::size_t i) {
    return makeFuzzScenario(i, cappedScenario(), true, true, true, true,
                            true, true);
  };
  std::vector<std::string> serial(kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    serial[i] = runFuzzCase(scenarioFor(i), kindFor(i)).digest;
    ASSERT_FALSE(serial[i].empty());
  }
  std::vector<std::string> fanned(kSeeds);
  parallelFor(
      kSeeds,
      [&](std::size_t i) {
        fanned[i] = runFuzzCase(scenarioFor(i), kindFor(i)).digest;
      },
      4);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_EQ(serial[i], fanned[i]) << "seed " << i;
  }
}

TEST(FuzzDeterminism, DroppedFabricDimensionsReproduceBaseDigests) {
  // Bus neutrality at the digest level: a build that enables the
  // network-topology and workload-mix dimensions but shrinks them away
  // must reproduce the historical baseline digests byte for byte — the
  // same property `--net bus` pins for the CLIs.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const AllocatorKind kind = kindFor(seed);
    ShrinkSpec dropped = cappedScenario();
    dropped.drop_net_topology = true;
    dropped.drop_workload_mix = true;
    const FuzzCaseResult base =
        runFuzzCase(makeFuzzScenario(seed, cappedScenario()), kind);
    const FuzzCaseResult capped = runFuzzCase(
        makeFuzzScenario(seed, dropped, false, false, false, false,
                         /*with_net_topology=*/true,
                         /*with_workload_mix=*/true),
        kind);
    ASSERT_FALSE(base.digest.empty());
    EXPECT_EQ(base.digest, capped.digest) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rtdrm::check
