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
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"

namespace {

rtdrm::check::ShrinkSpec shrinkFromFlags(std::int64_t max_subtasks,
                                         std::int64_t max_periods, bool flat,
                                         bool drop_faults,
                                         bool drop_manager_faults,
                                         bool drop_sched,
                                         bool drop_period_adjust,
                                         bool drop_net_topology,
                                         bool drop_workload_mix) {
  rtdrm::check::ShrinkSpec shrink;
  if (max_subtasks > 0) {
    shrink.max_subtasks = static_cast<std::size_t>(max_subtasks);
  }
  if (max_periods > 0) {
    shrink.max_periods = static_cast<std::uint64_t>(max_periods);
  }
  shrink.flatten_workload = flat;
  shrink.drop_faults = drop_faults;
  shrink.drop_manager_faults = drop_manager_faults;
  shrink.drop_sched = drop_sched;
  shrink.drop_period_adjust = drop_period_adjust;
  shrink.drop_net_topology = drop_net_topology;
  shrink.drop_workload_mix = drop_workload_mix;
  return shrink;
}

std::string reproLine(std::uint64_t seed,
                      const rtdrm::check::ShrinkSpec& shrink, bool faults,
                      bool manager_faults, bool sched, bool period_adjust,
                      bool net_topology, bool workload_mix) {
  return "fuzz_scenarios --replay-seed=" + std::to_string(seed) +
         (faults ? " --faults" : "") +
         (manager_faults ? " --manager-faults" : "") +
         (sched ? " --sched" : "") +
         (period_adjust ? " --period-adjust" : "") +
         (net_topology ? " --net-topology" : "") +
         (workload_mix ? " --workload-mix" : "") + shrink.cliFlags();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t seeds = 200;
  std::int64_t start_seed = 0;
  std::int64_t replay_seed = -1;
  std::int64_t max_subtasks = 0;
  std::int64_t max_periods = 0;
  bool flat = false;
  bool faults = false;
  bool manager_faults = false;
  bool sched = false;
  bool period_adjust = false;
  bool net_topology = false;
  bool workload_mix = false;
  bool drop_faults = false;
  bool drop_manager_faults = false;
  bool drop_sched = false;
  bool drop_period_adjust = false;
  bool drop_net_topology = false;
  bool drop_workload_mix = false;
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
      .addFlag("faults",
               "grow a fault schedule (crashes, throttles, frame loss, "
               "clock outages) per seed",
               &faults)
      .addFlag("manager-faults",
               "grow a decentralized-plane dimension per seed (2-3 manager "
               "endpoints plus a manager crash/restart schedule)",
               &manager_faults)
      .addFlag("sched",
               "grow a scheduler dimension per seed (the cluster draws one "
               "of rr/fifo/priority/edf/rms/llf)",
               &sched)
      .addFlag("period-adjust",
               "grow an elastic-period dimension per seed (max_period bound "
               "plus the manager's dilation lever)",
               &period_adjust)
      .addFlag("net-topology",
               "grow a network-topology dimension per seed (bus or a 2-4 "
               "segment switched fabric, line or star)",
               &net_topology)
      .addFlag("workload-mix",
               "grow a workload-mix dimension per seed (pareto / surge / "
               "multi contender flows)",
               &workload_mix)
      .addFlag("drop-faults", "strip the fault schedule (shrink cap)",
               &drop_faults)
      .addFlag("drop-manager-faults",
               "strip the decentralized-plane dimension (shrink cap)",
               &drop_manager_faults)
      .addFlag("drop-sched",
               "back to the Round-Robin baseline scheduler (shrink cap)",
               &drop_sched)
      .addFlag("drop-period-adjust",
               "strip the elastic-period dimension (shrink cap)",
               &drop_period_adjust)
      .addFlag("drop-net-topology",
               "back to the shared bus (shrink cap)",
               &drop_net_topology)
      .addFlag("drop-workload-mix",
               "back to the paper workload family (shrink cap)",
               &drop_workload_mix)
      .addFlag("no-shrink", "report failures without minimizing", &no_shrink)
      .addFlag("verbose", "print every scenario as it runs", &verbose)
      .addString("repro-out",
                 "write the minimized reproducer command to this file",
                 &repro_out)
      .addInt("threads",
              "worker threads the seed sweep fans out over (0 = "
              "RTDRM_THREADS or cores)",
              &threads);
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }

  rtdrm::parallel::setThreads(
      threads < 0 ? 0u : static_cast<unsigned>(threads));

  const rtdrm::check::ShrinkSpec shrink =
      shrinkFromFlags(max_subtasks, max_periods, flat, drop_faults,
                      drop_manager_faults, drop_sched, drop_period_adjust,
                      drop_net_topology, drop_workload_mix);

  if (replay_seed >= 0) {
    const auto seed = static_cast<std::uint64_t>(replay_seed);
    const rtdrm::check::FuzzScenario scenario =
        rtdrm::check::makeFuzzScenario(seed, shrink, faults, manager_faults,
                                       sched, period_adjust, net_topology,
                                       workload_mix);
    std::cout << "replaying " << scenario.summary() << "\n";
    const rtdrm::check::FuzzOutcome outcome = rtdrm::check::runFuzzSeed(
        seed, shrink, faults, {}, manager_faults, sched, period_adjust,
        net_topology, workload_mix);
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
    outcomes[i] = rtdrm::check::runFuzzSeed(
        first + i, shrink, faults, {}, manager_faults, sched, period_adjust,
        net_topology, workload_mix);
  });

  // Report in seed order, exactly as a serial sweep would: it stops at the
  // lowest failing seed.
  std::uint64_t total_checks = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    if (verbose) {
      std::cout
          << rtdrm::check::makeFuzzScenario(seed, shrink, faults,
                                            manager_faults, sched,
                                            period_adjust, net_topology,
                                            workload_mix)
                 .summary()
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

    rtdrm::check::ShrinkSpec minimal = shrink;
    if (!no_shrink) {
      std::cout << "shrinking...\n";
      minimal = rtdrm::check::minimize(
          seed, shrink,
          [faults, manager_faults, sched, period_adjust, net_topology,
           workload_mix](std::uint64_t s, const rtdrm::check::ShrinkSpec& c) {
            return rtdrm::check::runFuzzSeed(s, c, faults, {},
                                             manager_faults, sched,
                                             period_adjust, net_topology,
                                             workload_mix)
                .failed();
          },
          faults, manager_faults, sched, period_adjust, net_topology,
          workload_mix);
      std::cout << "minimal scenario: "
                << rtdrm::check::makeFuzzScenario(seed, minimal, faults,
                                                  manager_faults, sched,
                                                  period_adjust, net_topology,
                                                  workload_mix)
                       .summary()
                << "\n";
    }
    const std::string repro = reproLine(seed, minimal, faults,
                                        manager_faults, sched,
                                        period_adjust, net_topology,
                                        workload_mix);
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
