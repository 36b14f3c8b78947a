// Digest-level determinism of the fuzz stack. A fuzz case is a pure
// function of its scenario: running independent cases concurrently on the
// worker pool (the fuzz_scenarios seed fan-out) must reproduce the serial
// digests byte for byte.
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

FuzzSpec cappedScenario() {
  FuzzSpec spec;
  spec.max_subtasks = 3;
  spec.max_periods = 6;
  return spec;
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
  FuzzSpec spec = cappedScenario();
  spec.dims = FuzzSpec::kAllDims;
  const auto scenarioFor = [&spec](std::size_t i) {
    return makeFuzzScenario(i, spec);
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

}  // namespace
}  // namespace rtdrm::check
