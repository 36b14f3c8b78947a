// Deterministic scenario fuzzer (see src/check/fuzz.hpp).
//
// Sweeps seeds through randomized full-stack scenarios, running each under
// both allocators with the InvariantOracle attached and replaying each run
// to prove byte-identical traces. Seeds are independent, so the sweep fans
// them out over parallelFor (--threads); outcomes are collected per seed
// and reported in seed order, so stdout is identical for every thread
// count. On failure the lowest failing seed is shrunk to a minimal
// reproducer and the exact `--replay-seed` command line is printed (and
// optionally written to a file for CI artifact upload).
//
//   fuzz_scenarios --seeds 500            # sweep seeds 0..499
//   fuzz_scenarios --replay-seed 123      # re-run one reproducer
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"

int main(int argc, char** argv) {
  std::int64_t seeds = 200;
  std::int64_t start_seed = 0;
  std::int64_t replay_seed = -1;
  std::int64_t max_subtasks = 0;
  std::int64_t max_periods = 0;
  bool flat = false;
  std::array<bool, rtdrm::check::kFuzzDimensions.size()> dims{};
  bool no_shrink = false;
  bool verbose = false;
  std::string repro_out;
  std::int64_t threads = 0;

  rtdrm::ArgParser parser(
      "fuzz_scenarios",
      "Randomized full-stack scenarios under an invariant oracle, with "
      "seed replay and failure minimization.");
  parser.addInt("seeds", "number of seeds to sweep", &seeds)
      .addInt("start-seed", "first seed of the sweep", &start_seed)
      .addInt("replay-seed", "run exactly this seed and exit (-1 = sweep)",
              &replay_seed)
      .addInt("max-subtasks", "cap the pipeline length (0 = uncapped)",
              &max_subtasks)
      .addInt("max-periods", "cap the horizon in periods (0 = uncapped)",
              &max_periods)
      .addFlag("flat", "flatten the workload table to its mean", &flat)
      .addFlag("no-shrink", "report failures without minimizing", &no_shrink)
      .addFlag("verbose", "print every scenario as it runs", &verbose)
      .addString("repro-out",
                 "write the minimized reproducer command to this file",
                 &repro_out)
      .addInt("threads",
              "worker threads the seed sweep fans out over (0 = "
              "RTDRM_THREADS or cores)",
              &threads);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const rtdrm::check::FuzzDimension& d = rtdrm::check::kFuzzDimensions[i];
    parser.addFlag(d.flag, d.help, &dims[i]);
  }
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }

  rtdrm::parallel::setThreads(
      threads < 0 ? 0u : static_cast<unsigned>(threads));

  rtdrm::check::FuzzSpec spec;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    spec.set(rtdrm::check::kFuzzDimensions[i].dim, dims[i]);
  }
  if (max_subtasks > 0) {
    spec.max_subtasks = static_cast<std::size_t>(max_subtasks);
  }
  if (max_periods > 0) {
    spec.max_periods = static_cast<std::uint64_t>(max_periods);
  }
  spec.flatten_workload = flat;

  if (replay_seed >= 0) {
    const auto seed = static_cast<std::uint64_t>(replay_seed);
    const rtdrm::check::FuzzScenario scenario =
        rtdrm::check::makeFuzzScenario(seed, spec);
    std::cout << "replaying " << scenario.summary() << "\n";
    const rtdrm::check::FuzzOutcome outcome =
        rtdrm::check::runFuzzSeed(seed, spec);
    if (outcome.failed()) {
      std::cout << "FAIL: " << outcome.detail << "\n";
      return 1;
    }
    std::cout << "OK (" << outcome.checks << " oracle checks, replay "
              << "byte-identical)\n";
    return 0;
  }

  const auto first = static_cast<std::uint64_t>(start_seed);
  const auto count = static_cast<std::uint64_t>(seeds);
  std::vector<rtdrm::check::FuzzOutcome> outcomes(count);
  rtdrm::parallelFor(count, [&](std::size_t i) {
    outcomes[i] = rtdrm::check::runFuzzSeed(first + i, spec);
  });

  // Report in seed order, exactly as a serial sweep would: it stops at the
  // lowest failing seed.
  std::uint64_t total_checks = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    if (verbose) {
      std::cout << rtdrm::check::makeFuzzScenario(seed, spec).summary()
                << std::endl;
    }
    const rtdrm::check::FuzzOutcome& outcome = outcomes[seed - first];
    total_checks += outcome.checks;
    if (!outcome.failed()) {
      if (!verbose && (seed - first + 1) % 50 == 0) {
        std::cout << (seed - first + 1) << "/" << count << " seeds clean\n";
      }
      continue;
    }

    std::cout << "seed " << seed << " FAILED ("
              << (outcome.invariants_ok ? "nondeterministic replay"
                                        : "invariant violation")
              << ")\n"
              << outcome.detail << "\n";

    rtdrm::check::FuzzSpec minimal = spec;
    if (!no_shrink) {
      std::cout << "shrinking...\n";
      minimal = rtdrm::check::minimize(
          seed, spec, [](std::uint64_t s, const rtdrm::check::FuzzSpec& c) {
            return rtdrm::check::runFuzzSeed(s, c).failed();
          });
      std::cout << "minimal scenario: "
                << rtdrm::check::makeFuzzScenario(seed, minimal).summary()
                << "\n";
    }
    const std::string repro = "fuzz_scenarios --replay-seed=" +
                              std::to_string(seed) + minimal.cliFlags();
    std::cout << "reproduce with:\n  " << repro << "\n";
    if (!repro_out.empty()) {
      std::ofstream out(repro_out);
      out << repro << "\n";
    }
    return 1;
  }

  std::cout << count << " seeds x 2 allocators x 2 runs: all invariants "
            << "held, all replays byte-identical (" << total_checks
            << " oracle checks)\n";
  return 0;
}
