// Extension — manager failover: decision-gap impact on missed deadlines
// as a function of the manager detector's timeout.
//
// The decentralized management plane keeps task execution running when the
// active manager endpoint dies, but every period between the crash and the
// standby's election runs without monitor/allocator decisions (the
// decision gate). This bench crashes the active at the triangular ramp's
// steepest point — where a gated allocator hurts most — and sweeps the
// heartbeat detector's staleness timeout, measuring:
//
//   * the decision gap (crash -> election, ms) against the detector's
//     worst-case budget timeout + (retries+1)*interval + retries*backoff,
//   * the missed-deadline ratio against the centralized control and the
//     2-manager no-crash control.
//
// A neutrality run asserts in-binary that --managers 1 with plane config
// fields populated (but no plane built) reproduces the plain centralized
// episode exactly. Emits bench_out/manager_failover.csv and
// BENCH_fault_failover.json (BENCH_fault.json belongs to the node-crash
// bench and is not touched).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "experiments/episode.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

namespace {

struct BenchConfig {
  std::size_t nodes = 6;  // Table 1
  std::size_t managers = 2;
  std::uint64_t periods = 48;
  std::uint64_t crash_period = 16;           // steepest ramp-up point
  double restart_after_periods = 16.0;       // back one cycle later
  double max_tracks = 9000.0;
  double min_tracks = 2000.0;
  std::uint64_t ramp_periods = 12;
};

experiments::EpisodeConfig makeEpisode(const BenchConfig& cfg,
                                       const task::TaskSpec& spec,
                                       bool plane, bool crash,
                                       double timeout_ms) {
  experiments::EpisodeConfig ep;
  ep.scenario.node_count = cfg.nodes;
  ep.periods = cfg.periods;
  if (plane) {
    ep.plane = core::PlaneConfig::scaledTo(spec.period, cfg.managers);
    ep.manager_detector.timeout = SimDuration::millis(timeout_ms);
    if (crash) {
      ep.manager_crash_at_period = cfg.crash_period;
      ep.manager_fault_target = 0;  // the initial active
      ep.manager_restart_after_periods = cfg.restart_after_periods;
    }
  }
  return ep;
}

experiments::EpisodeResult runOne(const BenchConfig& cfg,
                                  const task::TaskSpec& spec,
                                  const core::PredictiveModels& models,
                                  const experiments::EpisodeConfig& ep) {
  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(cfg.min_tracks);
  ramp.max_workload = DataSize::tracks(cfg.max_tracks);
  ramp.ramp_periods = cfg.ramp_periods;
  const workload::Triangular pattern(ramp);
  return runEpisode(spec, pattern, models,
                    experiments::AlgorithmKind::kPredictive, ep);
}

bool sameEpisode(const experiments::EpisodeResult& a,
                 const experiments::EpisodeResult& b) {
  return a.missed_pct == b.missed_pct && a.cpu_pct == b.cpu_pct &&
         a.net_pct == b.net_pct && a.avg_replicas == b.avg_replicas &&
         a.metrics.replicate_actions == b.metrics.replicate_actions &&
         a.metrics.shutdown_actions == b.metrics.shutdown_actions &&
         a.metrics.allocation_failures == b.metrics.allocation_failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t periods = 48;
  ArgParser parser("bench_ext_manager_failover",
                   "Missed deadlines and decision gap through an active-"
                   "manager crash, swept over the detector timeout");
  parser.addInt("periods", "episode length in task periods", &periods);
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }

  const auto& spec = bench::aawSpec();
  const auto& fitted = bench::fittedModels();
  BenchConfig cfg;
  cfg.periods = static_cast<std::uint64_t>(periods);

  printBanner(std::cout,
              "Manager failover: active endpoint crashes at period " +
                  std::to_string(cfg.crash_period) +
                  ", detector timeout swept");

  // In-binary neutrality: managers == 1 with plane fields populated builds
  // no plane and must reproduce the plain centralized episode exactly.
  const experiments::EpisodeResult control =
      runOne(cfg, spec, fitted.models,
             makeEpisode(cfg, spec, /*plane=*/false, false, 0.0));
  experiments::EpisodeConfig neutral =
      makeEpisode(cfg, spec, /*plane=*/true, false, 250.0);
  neutral.plane.managers = 1;
  const bool neutrality_ok =
      sameEpisode(control, runOne(cfg, spec, fitted.models, neutral));
  if (!neutrality_ok) {
    std::cout << "NEUTRALITY VIOLATION: --managers 1 with plane config set "
                 "diverged from the centralized episode\n";
  }

  Table t({"scenario", "timeout ms", "missed %", "gap ms", "budget ms",
           "elections", "suppressed periods", "gossip rounds"},
          2);
  t.addRow({"centralized control", 0.0, control.missed_pct, 0.0, 0.0,
            0LL, 0LL, 0LL});

  const experiments::EpisodeResult no_crash =
      runOne(cfg, spec, fitted.models,
             makeEpisode(cfg, spec, true, /*crash=*/false, 250.0));
  t.addRow({"2 managers, no crash", 250.0, no_crash.missed_pct, 0.0, 0.0,
            static_cast<long long>(no_crash.elections),
            static_cast<long long>(no_crash.suppressed_periods),
            static_cast<long long>(no_crash.gossip_rounds)});

  bool ok = neutrality_ok;
  if (no_crash.elections != 0 || no_crash.decision_gap_ms != 0.0) {
    std::cout << "Shape check FAILED: the crash-free plane elected ("
              << no_crash.elections << ") or opened a gap ("
              << no_crash.decision_gap_ms << " ms).\n";
    ok = false;
  }

  // The sweep: the gap must track the detector budget, and a slower
  // detector must never miss fewer deadlines than a faster one (within
  // episode noise, checked end-to-end against the extremes).
  const fault::DetectorConfig dc;  // interval/retry/backoff defaults
  std::ostringstream json_rows;
  std::vector<double> gaps;
  std::vector<double> missed;
  const std::vector<double> timeouts = {100.0, 250.0, 500.0, 1000.0};
  for (const double timeout_ms : timeouts) {
    const experiments::EpisodeResult r =
        runOne(cfg, spec, fitted.models,
               makeEpisode(cfg, spec, true, true, timeout_ms));
    const double budget_ms =
        timeout_ms +
        static_cast<double>(dc.max_retries + 1) * dc.interval.ms() +
        static_cast<double>(dc.max_retries) * dc.retry_backoff.ms();
    t.addRow({"2 managers, crash", timeout_ms, r.missed_pct,
              r.decision_gap_ms, budget_ms,
              static_cast<long long>(r.elections),
              static_cast<long long>(r.suppressed_periods),
              static_cast<long long>(r.gossip_rounds)});
    if (!json_rows.str().empty()) {
      json_rows << ",\n";
    }
    json_rows << "    { \"timeout_ms\": " << std::fixed
              << std::setprecision(2) << timeout_ms
              << ", \"missed_pct\": " << r.missed_pct
              << ", \"decision_gap_ms\": " << r.decision_gap_ms
              << ", \"budget_ms\": " << budget_ms
              << ", \"elections\": " << r.elections
              << ", \"suppressed_periods\": " << r.suppressed_periods
              << ", \"gossip_rounds\": " << r.gossip_rounds << " }";
    gaps.push_back(r.decision_gap_ms);
    missed.push_back(r.missed_pct);
    if (r.elections < 1) {
      std::cout << "Shape check FAILED: no election after the crash "
                   "(timeout "
                << timeout_ms << " ms).\n";
      ok = false;
    }
    if (r.decision_gap_ms <= 0.0 || r.decision_gap_ms > budget_ms + 50.0) {
      std::cout << "Shape check FAILED: decision gap " << r.decision_gap_ms
                << " ms outside (0, budget " << budget_ms
                << " + 50] at timeout " << timeout_ms << " ms.\n";
      ok = false;
    }
  }
  // Longer detection must mean a no-shorter gap, and the slowest detector
  // must not beat the fastest on missed deadlines.
  for (std::size_t i = 1; i < gaps.size(); ++i) {
    if (gaps[i] < gaps[i - 1]) {
      std::cout << "Shape check FAILED: gap shrank as the timeout grew ("
                << gaps[i - 1] << " -> " << gaps[i] << " ms).\n";
      ok = false;
    }
  }
  if (missed.back() < missed.front()) {
    std::cout << "Shape check FAILED: the slowest detector missed fewer "
                 "deadlines than the fastest ("
              << missed.back() << "% vs " << missed.front() << "%).\n";
    ok = false;
  }
  t.print(std::cout);

  std::filesystem::create_directories("bench_out");
  if (t.writeCsv("bench_out/manager_failover.csv")) {
    std::cout << "(series written to bench_out/manager_failover.csv)\n";
  }

  {
    std::ofstream json("BENCH_fault_failover.json");
    json << "{\n"
         << "  \"benchmark\": \"bench_ext_manager_failover\",\n"
         << "  \"description\": \"Active-manager crash on the 2-manager "
            "decentralized plane at the triangular ramp's steepest point "
            "(AAW task, Table-1 cluster), with the endpoint restarting one "
            "cycle later. Sweeps the manager heartbeat detector's staleness "
            "timeout and reports the decision gap (crash to standby "
            "election) against the detector's worst-case budget, plus the "
            "missed-deadline ratio against centralized and crash-free "
            "controls. Simulation-deterministic (no wall-clock).\",\n"
         << "  \"config\": {\n"
         << "    \"nodes\": " << cfg.nodes << ",\n"
         << "    \"managers\": " << cfg.managers << ",\n"
         << "    \"periods\": " << cfg.periods << ",\n"
         << "    \"crash_period\": " << cfg.crash_period << ",\n"
         << "    \"restart_after_periods\": " << std::fixed
         << std::setprecision(1) << cfg.restart_after_periods << ",\n"
         << "    \"workload_tracks\": [" << cfg.min_tracks << ", "
         << cfg.max_tracks << "],\n"
         << "    \"detector\": { \"interval_ms\": " << std::setprecision(0)
         << dc.interval.ms() << ", \"max_retries\": " << dc.max_retries
         << ", \"retry_backoff_ms\": " << dc.retry_backoff.ms() << " },\n"
         << "    " << bench::runContextJson() << "\n"
         << "  },\n"
         << "  \"headline\": {\n"
         << "    \"cell\": \"2-manager plane, crash at ramp peak\",\n"
         << "    \"missed_pct_centralized\": " << std::setprecision(2)
         << control.missed_pct << ",\n"
         << "    \"missed_pct_no_crash\": " << no_crash.missed_pct << ",\n"
         << "    \"missed_pct_fastest_detector\": " << missed.front()
         << ",\n"
         << "    \"missed_pct_slowest_detector\": " << missed.back() << ",\n"
         << "    \"decision_gap_ms_fastest\": " << gaps.front() << ",\n"
         << "    \"decision_gap_ms_slowest\": " << gaps.back() << "\n"
         << "  },\n"
         << "  \"rows\": [\n"
         << json_rows.str() << "\n  ],\n"
         << "  \"neutrality\": \"" << (neutrality_ok ? "PASSED" : "FAILED")
         << ": --managers 1 with plane config populated reproduces the "
            "centralized episode bit for bit\"\n"
         << "}\n";
    std::cout << "(headline written to BENCH_fault_failover.json)\n";
  }

  if (ok) {
    std::cout << "\nShape check PASSED: the decision gap stays inside the "
                 "detector budget at every timeout, and failover converts "
                 "the manager crash into a bounded no-decision window.\n";
  }
  return ok ? 0 : 1;
}
