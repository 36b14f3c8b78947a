// Extension — crash-and-recover: missed deadlines through a node failure
// with and without heartbeat-driven failover.
//
// The paper's managers assume a fixed node set; this bench injects a
// fail-stop crash of one replica-hosting node at peak load (with a later
// restart) and measures the missed-deadline ratio for the predictive
// (Fig. 5) and non-predictive (Fig. 7) managers in three regimes:
//
//   none         — no fault (control),
//   no-failover  — the node crashes but nobody tells the manager: every
//                  period whose placement touches the dead node stalls to
//                  its cutoff until the restart,
//   failover     — a heartbeat FailureDetector declares the node dead and
//                  the manager re-places its replicas on survivors
//                  (ResourceManager::handleNodeFailure).
//
// A fourth run arms an *empty* fault plan and must reproduce the control
// bit for bit — the zero-fault neutrality the fault subsystem guarantees.
// Emits bench_out/fault_recovery.csv and BENCH_fault.json.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

namespace {

enum class FaultMode { kNone, kEmptyPlan, kNoFailover, kFailover };

const char* faultModeName(FaultMode mode) {
  switch (mode) {
    case FaultMode::kNone:
      return "none";
    case FaultMode::kEmptyPlan:
      return "empty plan";
    case FaultMode::kNoFailover:
      return "crash, no failover";
    case FaultMode::kFailover:
      return "crash + failover";
  }
  return "?";
}

struct EpisodeConfig {
  std::size_t nodes = 6;  // Table 1
  std::uint64_t periods = 48;
  std::uint64_t crash_period = 16;    // just past the first workload peak
  std::uint64_t restart_period = 32;  // one full cycle later
  double max_tracks = 9000.0;
  double min_tracks = 2000.0;
  std::uint64_t ramp_periods = 12;
  ProcessorId crash_node{1};  // hosts the stage-1 primary and replicas
};

struct ModeResult {
  double missed_pct = 0.0;
  double avg_replicas = 0.0;
  std::uint64_t replicate_actions = 0;
  std::uint64_t shutdown_actions = 0;
  std::uint64_t allocation_failures = 0;
  std::uint64_t failures_handled = 0;
  std::uint64_t failover_replacements = 0;
  std::uint64_t recovery_allocation_failures = 0;
  /// Crash-to-handleNodeFailure latency (0 when failover is off).
  double detect_ms = 0.0;
};

bool sameEpisode(const ModeResult& a, const ModeResult& b) {
  return a.missed_pct == b.missed_pct && a.avg_replicas == b.avg_replicas &&
         a.replicate_actions == b.replicate_actions &&
         a.shutdown_actions == b.shutdown_actions &&
         a.allocation_failures == b.allocation_failures;
}

ModeResult runFaultEpisode(const task::TaskSpec& spec,
                           const core::PredictiveModels& models,
                           experiments::AlgorithmKind algorithm,
                           FaultMode mode, const EpisodeConfig& cfg) {
  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(cfg.min_tracks);
  ramp.max_workload = DataSize::tracks(cfg.max_tracks);
  ramp.ramp_periods = cfg.ramp_periods;
  const workload::Triangular pattern(ramp);

  const SimTime crash_at =
      SimTime::zero() + spec.period * static_cast<double>(cfg.crash_period);
  std::optional<fault::FaultPlan> plan;
  if (mode != FaultMode::kNone) {
    plan.emplace();
  }
  if (mode == FaultMode::kNoFailover || mode == FaultMode::kFailover) {
    fault::CrashFault crash;
    crash.node = cfg.crash_node;
    crash.at = crash_at;
    crash.restart_at = SimTime::zero() +
                       spec.period * static_cast<double>(cfg.restart_period);
    plan->crashes.push_back(crash);
  }
  experiments::EpisodeConfig ecfg;
  ecfg.scenario.node_count = cfg.nodes;
  ecfg.periods = cfg.periods;
  experiments::Episode episode(ecfg, algorithm, {{spec, &pattern, &models, 0}},
                               std::move(plan));
  apps::Scenario& scenario = episode.scenario();
  core::ResourceManager& manager = episode.manager();

  ModeResult out;
  bool detected = false;
  std::unique_ptr<fault::FailureDetector> detector;
  if (mode == FaultMode::kFailover) {
    detector = std::make_unique<fault::FailureDetector>(
        scenario.sim(), scenario.cluster(), scenario.ethernet(),
        fault::DetectorConfig{},
        [&](ProcessorId p) {
          if (scenario.cluster().isUp(p)) {
            return;  // false suspicion; only real crashes fail over
          }
          if (!detected) {
            detected = true;
            out.detect_ms = (scenario.sim().now() - crash_at).ms();
          }
          manager.handleNodeFailure(p);
        },
        [&](ProcessorId p) {
          if (scenario.cluster().isUp(p)) {
            manager.handleNodeRestart(p);
          }
        });
    episode.addActivity([&](SimTime at) { detector->start(at); },
                        [&] { detector->stop(); });
  }
  episode.run();

  const experiments::EpisodeResult r = episode.result();
  out.missed_pct = r.missed_pct;
  out.avg_replicas = r.avg_replicas;
  out.replicate_actions = r.metrics.replicate_actions;
  out.shutdown_actions = r.metrics.shutdown_actions;
  out.allocation_failures = r.metrics.allocation_failures;
  out.failures_handled = r.metrics.node_failures_handled;
  out.failover_replacements = r.metrics.failover_replacements;
  out.recovery_allocation_failures = r.metrics.recovery_allocation_failures;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t periods = 48;
  ArgParser parser("bench_ext_fault_recovery",
                   "Missed deadlines through a node crash-and-restart, with "
                   "and without heartbeat-driven failover");
  parser.addInt("periods", "episode length in task periods", &periods);
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }

  const auto& spec = bench::aawSpec();
  const auto& fitted = bench::fittedModels();
  EpisodeConfig cfg;
  cfg.periods = static_cast<std::uint64_t>(periods);

  printBanner(std::cout,
              "Crash-and-recover: node " +
                  std::to_string(cfg.crash_node.value) + " fails at period " +
                  std::to_string(cfg.crash_period) + ", restarts at period " +
                  std::to_string(cfg.restart_period));
  Table t({"algorithm", "fault mode", "missed %", "avg replicas",
           "replicate acts", "failures handled", "replacements",
           "detect ms"},
          2);

  bool neutrality_ok = true;
  ModeResult headline_failover;
  ModeResult headline_no_failover;
  std::ostringstream json_rows;
  bool first_row = true;
  for (const auto algorithm : {experiments::AlgorithmKind::kPredictive,
                               experiments::AlgorithmKind::kNonPredictive}) {
    ModeResult control;
    for (const FaultMode mode :
         {FaultMode::kNone, FaultMode::kEmptyPlan, FaultMode::kNoFailover,
          FaultMode::kFailover}) {
      const ModeResult r =
          runFaultEpisode(spec, fitted.models, algorithm, mode, cfg);
      if (mode == FaultMode::kNone) {
        control = r;
      }
      if (mode == FaultMode::kEmptyPlan && !sameEpisode(control, r)) {
        neutrality_ok = false;
        std::cout << "NEUTRALITY VIOLATION: an armed empty fault plan "
                     "changed the episode ("
                  << experiments::algorithmName(algorithm) << ")\n";
      }
      if (algorithm == experiments::AlgorithmKind::kPredictive) {
        if (mode == FaultMode::kFailover) {
          headline_failover = r;
        } else if (mode == FaultMode::kNoFailover) {
          headline_no_failover = r;
        }
      }
      t.addRow({experiments::algorithmName(algorithm), faultModeName(mode),
                r.missed_pct, r.avg_replicas,
                static_cast<long long>(r.replicate_actions),
                static_cast<long long>(r.failures_handled),
                static_cast<long long>(r.failover_replacements),
                r.detect_ms});
      if (!first_row) {
        json_rows << ",\n";
      }
      first_row = false;
      json_rows << "    { \"algorithm\": \""
                << experiments::algorithmName(algorithm)
                << "\", \"mode\": \"" << faultModeName(mode)
                << "\", \"missed_pct\": " << std::fixed
                << std::setprecision(2) << r.missed_pct
                << ", \"avg_replicas\": " << r.avg_replicas
                << ", \"replicate_actions\": " << r.replicate_actions
                << ", \"failures_handled\": " << r.failures_handled
                << ", \"failover_replacements\": " << r.failover_replacements
                << ", \"recovery_allocation_failures\": "
                << r.recovery_allocation_failures
                << ", \"detect_ms\": " << r.detect_ms << " }";
    }
  }
  t.print(std::cout);

  std::filesystem::create_directories("bench_out");
  if (t.writeCsv("bench_out/fault_recovery.csv")) {
    std::cout << "(series written to bench_out/fault_recovery.csv)\n";
  }

  {
    std::ofstream json("BENCH_fault.json");
    json << "{\n"
         << "  \"benchmark\": \"bench_ext_fault_recovery\",\n"
         << "  \"description\": \"Fail-stop crash of one replica-hosting "
            "node at peak workload (triangular ramp, AAW task, Table-1 "
            "cluster) with a restart one cycle later. Compares the "
            "missed-deadline ratio with no fault, with the crash but no "
            "failure detection (stalled periods run to their cutoff until "
            "the restart), and with a heartbeat FailureDetector driving "
            "ResourceManager::handleNodeFailure. All numbers are "
            "simulation-deterministic (no wall-clock).\",\n"
         << "  \"config\": {\n"
         << "    \"nodes\": " << cfg.nodes << ",\n"
         << "    \"periods\": " << cfg.periods << ",\n"
         << "    \"crash_period\": " << cfg.crash_period << ",\n"
         << "    \"restart_period\": " << cfg.restart_period << ",\n"
         << "    \"crash_node\": " << cfg.crash_node.value << ",\n"
         << "    \"workload_tracks\": [" << std::fixed
         << std::setprecision(1) << cfg.min_tracks << ", " << cfg.max_tracks
         << "],\n"
         << "    \"ramp_periods\": " << cfg.ramp_periods << ",\n"
         << "    \"detector\": { \"interval_ms\": 100, \"timeout_ms\": 250, "
            "\"max_retries\": 2, \"retry_backoff_ms\": 25 },\n"
         << "    " << bench::runContextJson() << "\n"
         << "  },\n"
         << "  \"headline\": {\n"
         << "    \"cell\": \"predictive manager, crash at peak\",\n"
         << "    \"missed_pct_no_failover\": " << std::setprecision(2)
         << headline_no_failover.missed_pct << ",\n"
         << "    \"missed_pct_failover\": " << headline_failover.missed_pct
         << ",\n"
         << "    \"detect_ms\": " << headline_failover.detect_ms << ",\n"
         << "    \"failover_replacements\": "
         << headline_failover.failover_replacements << "\n"
         << "  },\n"
         << "  \"rows\": [\n"
         << json_rows.str() << "\n  ],\n"
         << "  \"neutrality\": \"" << (neutrality_ok ? "PASSED" : "FAILED")
         << ": an armed empty fault plan reproduces the no-fault episode "
            "bit for bit\"\n"
         << "}\n";
    std::cout << "(headline written to BENCH_fault.json)\n";
  }

  bool ok = neutrality_ok;
  if (headline_failover.failures_handled == 0) {
    std::cout << "\nShape check FAILED: failover never triggered.\n";
    ok = false;
  }
  if (headline_failover.detect_ms <= 0.0 ||
      headline_failover.detect_ms > 1500.0) {
    std::cout << "\nShape check FAILED: detection latency "
              << headline_failover.detect_ms << " ms out of range.\n";
    ok = false;
  }
  if (headline_failover.missed_pct >= headline_no_failover.missed_pct) {
    std::cout << "\nShape check FAILED: failover did not reduce missed "
                 "deadlines ("
              << headline_failover.missed_pct << "% vs "
              << headline_no_failover.missed_pct << "%).\n";
    ok = false;
  }
  if (ok) {
    std::cout << "\nShape check PASSED: failover re-places the dead node's "
                 "replicas and converts a sustained outage into a bounded "
                 "detection gap.\n";
  }
  return ok ? 0 : 1;
}
