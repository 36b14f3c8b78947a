// rtdrm — command-line front end to the library.
//
//   rtdrm profile  [--subtask NAME] [--out FILE]      profiling campaign
//   rtdrm fit      [--in FILE] [--joint]              fit eq. 3 on a CSV
//   rtdrm episode  [--pattern P] [--max-tracks N] ... run one episode
//   rtdrm sweep    [--pattern P] [--out PREFIX]       Figs. 9/10-style sweep
//
// Every subcommand accepts --help.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/dynbench.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"
#include "node/sched_policy.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "profile/dataset.hpp"
#include "profile/exec_profiler.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

namespace {

int findStage(const task::TaskSpec& spec, const std::string& name,
              std::size_t* out) {
  for (std::size_t i = 0; i < spec.stageCount(); ++i) {
    if (spec.subtasks[i].name == name) {
      *out = i;
      return 0;
    }
  }
  std::cerr << "unknown subtask '" << name << "'; available:";
  for (const auto& st : spec.subtasks) {
    std::cerr << ' ' << st.name;
  }
  std::cerr << "\n";
  return 1;
}

int cmdProfile(int argc, const char* const* argv) {
  std::string subtask = "Filter";
  std::string out = "exec_samples.csv";
  std::int64_t samples = 6;
  std::int64_t seed = 7;
  ArgParser args("rtdrm profile",
                 "profile a subtask over the paper's (d, u) grid");
  args.addString("subtask", "subtask name (from the AAW task)", &subtask)
      .addString("out", "output CSV path", &out)
      .addInt("samples", "timed executions per grid point", &samples)
      .addInt("seed", "profiling RNG seed", &seed);
  if (!args.parse(argc, argv)) {
    return args.helpRequested() ? 0 : 1;
  }
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  std::size_t stage = 0;
  if (findStage(spec, subtask, &stage) != 0) {
    return 1;
  }
  profile::ExecProfileConfig cfg;
  cfg.data_sizes = profile::paperDataGrid();
  cfg.samples_per_point = static_cast<int>(samples);
  cfg.seed = static_cast<std::uint64_t>(seed);
  const auto data = profile::profileExecution(spec.subtasks[stage], cfg);
  if (!profile::writeExecSamplesCsv(out, data)) {
    std::cerr << "failed to write " << out << "\n";
    return 1;
  }
  std::cout << data.size() << " samples written to " << out << "\n";
  return 0;
}

int cmdFit(int argc, const char* const* argv) {
  std::string in = "exec_samples.csv";
  bool joint = false;
  ArgParser args("rtdrm fit", "fit eq. 3 on a profiled sample CSV");
  args.addString("in", "input CSV (from `rtdrm profile`)", &in)
      .addFlag("joint", "use the joint 6-term fit instead of two-stage",
               &joint);
  if (!args.parse(argc, argv)) {
    return args.helpRequested() ? 0 : 1;
  }
  std::vector<regress::ExecSample> samples;
  if (!profile::readExecSamplesCsv(in, samples) || samples.empty()) {
    std::cerr << "failed to read samples from " << in << "\n";
    return 1;
  }
  const regress::ExecModelFit fit = joint
                                        ? regress::fitExecModelJoint(samples)
                                        : regress::fitExecModelTwoStage(samples);
  Table t({"a1", "a2", "a3", "b1", "b2", "b3", "R^2", "RMSE (ms)"}, 5);
  t.addRow({fit.model.a1, fit.model.a2, fit.model.a3, fit.model.b1,
            fit.model.b2, fit.model.b3, fit.diagnostics.r_squared,
            fit.diagnostics.rmse});
  t.print(std::cout);
  return 0;
}

int parseAlgorithm(const std::string& s, experiments::AlgorithmKind* out) {
  if (s == "predictive") {
    *out = experiments::AlgorithmKind::kPredictive;
    return 0;
  }
  if (s == "nonpredictive" || s == "non-predictive") {
    *out = experiments::AlgorithmKind::kNonPredictive;
    return 0;
  }
  std::cerr << "unknown algorithm '" << s
            << "' (predictive | nonpredictive)\n";
  return 1;
}

/// Parses --period-adjust ("off" | "on"). Returns 0, or 1 on a bad value.
int parsePeriodAdjust(const std::string& s, bool* out) {
  if (s == "off") {
    *out = false;
    return 0;
  }
  if (s == "on") {
    *out = true;
    return 0;
  }
  std::cerr << "unknown period-adjust mode '" << s << "' (off | on)\n";
  return 1;
}

/// Applies --threads to the process-wide worker budget.
void applyThreads(std::int64_t threads) {
  parallel::setThreads(threads < 0 ? 0u : static_cast<unsigned>(threads));
}

/// Applies the shared network/workload flags (--net, --segments,
/// --fabric-topology, --port-buffer, --workload, --tail-index,
/// --contenders) to an episode config. Returns 0, or 1 on a bad value.
int applyNetWorkloadFlags(const std::string& net_model,
                          std::int64_t segments,
                          const std::string& fabric_topology,
                          std::int64_t port_buffer,
                          const std::string& workload_mix,
                          double tail_index, std::int64_t contenders,
                          experiments::EpisodeConfig* cfg) {
  if (!net::parseNetKind(net_model, &cfg->scenario.net_kind)) {
    std::cerr << "unknown network model '" << net_model
              << "' (bus | switched)\n";
    return 1;
  }
  cfg->scenario.fabric.segments =
      static_cast<std::size_t>(std::max<std::int64_t>(1, segments));
  if (!net::parseFabricTopology(fabric_topology,
                                &cfg->scenario.fabric.topology)) {
    std::cerr << "unknown fabric topology '" << fabric_topology
              << "' (line | star)\n";
    return 1;
  }
  cfg->scenario.fabric.port_buffer_frames =
      static_cast<std::size_t>(std::max<std::int64_t>(1, port_buffer));
  cfg->scenario.fabric.validate();
  if (!workload::parseWorkloadMix(workload_mix, &cfg->workload_mix)) {
    std::cerr << "unknown workload mix '" << workload_mix
              << "' (paper | pareto | surge | multi)\n";
    return 1;
  }
  if (tail_index <= 0.0) {
    std::cerr << "--tail-index must be positive\n";
    return 1;
  }
  cfg->pareto.tail_index = tail_index;
  cfg->contenders.flows =
      static_cast<std::size_t>(std::max<std::int64_t>(0, contenders));
  return 0;
}

int cmdEpisode(int argc, const char* const* argv) {
  std::string pattern = "triangular";
  std::string algorithm = "predictive";
  double max_tracks = 10000.0;
  std::int64_t periods = 72;
  std::int64_t seed = 42;
  std::int64_t threads = 0;
  bool refit = false;
  bool histogram = false;
  std::string trace_out;
  std::string sched = "rr";
  std::string period_adjust = "off";
  std::int64_t managers = 1;
  std::int64_t manager_fault = 0;
  std::int64_t manager_fault_target = 0;
  double manager_restart = 0.0;
  std::string net_model = "bus";
  std::int64_t segments = 2;
  std::string fabric_topology = "line";
  std::int64_t port_buffer = 32;
  std::string workload_mix = "paper";
  double tail_index = 1.5;
  std::int64_t contenders = 2;
  ArgParser args("rtdrm episode", "run one evaluation episode");
  args.addString("pattern", "increasing | decreasing | triangular", &pattern)
      .addString("algorithm", "predictive | nonpredictive", &algorithm)
      .addDouble("max-tracks", "pattern peak workload", &max_tracks)
      .addInt("periods", "episode length", &periods)
      .addInt("seed", "master seed", &seed)
      .addInt("threads",
              "worker threads for model fitting (0 = RTDRM_THREADS or "
              "cores)",
              &threads)
      .addInt("managers",
              "manager endpoints (1 = legacy centralized plane, > 1 shards "
              "the management plane with gossip + failover)",
              &managers)
      .addInt("manager-fault",
              "crash a manager endpoint at this period (0 = none; needs "
              "--managers > 1)",
              &manager_fault)
      .addInt("manager-fault-target",
              "which manager endpoint --manager-fault crashes",
              &manager_fault_target)
      .addDouble("manager-restart",
                 "restart the crashed endpoint this many periods after the "
                 "crash (0 = never)",
                 &manager_restart)
      .addString("sched",
                 "node scheduling policy: rr | fifo | priority | edf | rms "
                 "| llf",
                 &sched)
      .addString("period-adjust",
                 "off | on (elastic period dilation when the forecast "
                 "rejects replication)",
                 &period_adjust)
      .addString("net",
                 "network substrate: bus (shared 100 Mbps segment, the "
                 "paper's Table 1) | switched (multi-segment store-and-"
                 "forward fabric)",
                 &net_model)
      .addInt("segments", "switch segments (--net switched)", &segments)
      .addString("fabric-topology", "line | star (--net switched)",
                 &fabric_topology)
      .addInt("port-buffer",
              "per-egress-port buffer in frames (--net switched)",
              &port_buffer)
      .addString("workload",
                 "workload mix: paper | pareto (heavy-tailed arrivals) | "
                 "surge (correlated multi-sensor) | multi (paper + "
                 "co-hosted contender flows)",
                 &workload_mix)
      .addDouble("tail-index",
                 "Pareto tail index alpha (--workload pareto)", &tail_index)
      .addInt("contenders",
              "co-hosted contender flows (--workload multi)", &contenders)
      .addFlag("refit", "enable online model refinement", &refit)
      .addFlag("histogram", "print the end-to-end latency histogram",
               &histogram)
      .addString("trace-out",
                 "record observability and write PREFIX.rtt, "
                 "PREFIX.perfetto.json, PREFIX.audit.txt, "
                 "PREFIX.metrics.{json,csv}",
                 &trace_out);
  if (!args.parse(argc, argv)) {
    return args.helpRequested() ? 0 : 1;
  }
  applyThreads(threads);
  experiments::AlgorithmKind kind{};
  if (parseAlgorithm(algorithm, &kind) != 0) {
    return 1;
  }
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  std::cout << "[fitting models...]\n";
  const auto fitted =
      experiments::fitAllModels(spec, experiments::defaultModelFitConfig());
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(max_tracks);
  const auto pat = workload::makeFig8Pattern(pattern, ramp);
  experiments::EpisodeConfig cfg;
  cfg.periods = static_cast<std::uint64_t>(periods);
  cfg.scenario.seed = static_cast<std::uint64_t>(seed);
  if (!node::parseSchedPolicy(sched, &cfg.scenario.cpu.policy)) {
    std::cerr << "unknown scheduling policy '" << sched
              << "' (rr | fifo | priority | edf | rms | llf)\n";
    return 1;
  }
  cfg.scenario.cpu.validate();
  if (applyNetWorkloadFlags(net_model, segments, fabric_topology,
                            port_buffer, workload_mix, tail_index,
                            contenders, &cfg) != 0) {
    return 1;
  }
  if (parsePeriodAdjust(period_adjust, &cfg.manager.allow_period_adjust) !=
      0) {
    return 1;
  }
  cfg.manager.online_refit = refit;
  if (pattern == "decreasing") {
    cfg.manager.d_init = ramp.max_workload;
  }
  if (managers > 1) {
    cfg.plane.managers = static_cast<std::size_t>(managers);
    // Gossip at a fifth of the task period; staleness bound = 4 intervals.
    cfg.plane.gossip_interval = spec.period * 0.2;
    cfg.plane.staleness_bound = spec.period * 0.8;
    cfg.manager_crash_at_period = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, manager_fault));
    cfg.manager_fault_target =
        static_cast<std::uint32_t>(manager_fault_target);
    cfg.manager_restart_after_periods = manager_restart;
  } else if (manager_fault > 0) {
    std::cerr << "--manager-fault needs --managers > 1\n";
    return 1;
  }
  obs::Observability bundle;
  if (!trace_out.empty()) {
    cfg.obs = &bundle;
  }
  const auto r = runEpisode(spec, *pat, fitted.models, kind, cfg);
  Table t({"missed %", "cpu %", "net %", "avg replicas", "combined C"}, 2);
  t.addRow({r.missed_pct, r.cpu_pct, r.net_pct, r.avg_replicas, r.combined});
  t.print(std::cout);
  if (managers > 1) {
    std::cout << "plane: managers=" << managers
              << " elections=" << r.elections
              << " gossip-rounds=" << r.gossip_rounds
              << " decision-gap-ms=" << r.decision_gap_ms
              << " suppressed-periods=" << r.suppressed_periods << "\n";
  }
  if (histogram) {
    std::cout << "end-to-end latency (ms):\n"
              << r.metrics.end_to_end_hist.render();
  }
  if (!trace_out.empty()) {
    const std::vector<obs::TraceRecord> records = bundle.trace.snapshot();
    bool ok = bundle.trace.writeBinary(trace_out + ".rtt");
    ok = obs::writePerfettoJson(trace_out + ".perfetto.json", records) && ok;
    ok = obs::writeDecisionAudit(trace_out + ".audit.txt", records) && ok;
    ok = bundle.metrics.writeJson(trace_out + ".metrics.json") && ok;
    ok = bundle.metrics.writeCsv(trace_out + ".metrics.csv") && ok;
    if (!ok) {
      std::cerr << "failed to write one or more '" << trace_out
                << ".*' observability files\n";
      return 1;
    }
    std::cout << records.size() << " trace records ("
              << bundle.trace.recorded() << " recorded, "
              << bundle.trace.overwritten() << " overwritten) and "
              << bundle.metrics.size() << " metrics written to " << trace_out
              << ".{rtt,perfetto.json,audit.txt,metrics.json,metrics.csv}\n";
  }
  return 0;
}

int cmdSweep(int argc, const char* const* argv) {
  std::string pattern = "triangular";
  std::string out = "sweep";
  std::int64_t periods = 72;
  std::int64_t replications = 1;
  std::int64_t threads = 0;
  std::string sched = "rr";
  std::string period_adjust = "off";
  std::string net_model = "bus";
  std::int64_t segments = 2;
  std::string fabric_topology = "line";
  std::int64_t port_buffer = 32;
  std::string workload_mix = "paper";
  double tail_index = 1.5;
  std::int64_t contenders = 2;
  bool serial = false;
  ArgParser args("rtdrm sweep",
                 "both algorithms across max workloads (Figs. 9/10 style)");
  args.addString("pattern", "increasing | decreasing | triangular", &pattern)
      .addString("out", "output CSV prefix", &out)
      .addInt("periods", "episode length per point", &periods)
      .addInt("replications", "seeds averaged per point", &replications)
      .addInt("threads",
              "worker threads for the point fan-out "
              "(0 = RTDRM_THREADS or cores)",
              &threads)
      .addString("sched",
                 "node scheduling policy: rr | fifo | priority | edf | rms "
                 "| llf",
                 &sched)
      .addString("period-adjust",
                 "off | on (elastic period dilation when the forecast "
                 "rejects replication)",
                 &period_adjust)
      .addString("net", "bus | switched (network substrate)", &net_model)
      .addInt("segments", "switch segments (--net switched)", &segments)
      .addString("fabric-topology", "line | star (--net switched)",
                 &fabric_topology)
      .addInt("port-buffer",
              "per-egress-port buffer in frames (--net switched)",
              &port_buffer)
      .addString("workload", "paper | pareto | surge | multi",
                 &workload_mix)
      .addDouble("tail-index",
                 "Pareto tail index alpha (--workload pareto)", &tail_index)
      .addInt("contenders",
              "co-hosted contender flows (--workload multi)", &contenders)
      .addFlag("serial", "run sweep points one at a time", &serial);
  if (!args.parse(argc, argv)) {
    return args.helpRequested() ? 0 : 1;
  }
  applyThreads(threads);
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  std::cout << "[fitting models...]\n";
  const auto fitted =
      experiments::fitAllModels(spec, experiments::defaultModelFitConfig());
  experiments::SweepConfig cfg;
  cfg.episode.periods = static_cast<std::uint64_t>(periods);
  if (!node::parseSchedPolicy(sched, &cfg.episode.scenario.cpu.policy)) {
    std::cerr << "unknown scheduling policy '" << sched
              << "' (rr | fifo | priority | edf | rms | llf)\n";
    return 1;
  }
  cfg.episode.scenario.cpu.validate();
  if (applyNetWorkloadFlags(net_model, segments, fabric_topology,
                            port_buffer, workload_mix, tail_index,
                            contenders, &cfg.episode) != 0) {
    return 1;
  }
  if (parsePeriodAdjust(period_adjust,
                        &cfg.episode.manager.allow_period_adjust) != 0) {
    return 1;
  }
  cfg.replications = static_cast<std::size_t>(std::max<std::int64_t>(
      1, replications));
  cfg.parallel = !serial;
  const auto points =
      experiments::runWorkloadSweep(spec, fitted.models, pattern, cfg);
  Table t({"max workload (x500)", "pred combined", "nonpred combined",
           "pred missed %", "nonpred missed %"},
          3);
  for (const auto& p : points) {
    t.addRow({p.max_workload_units, p.predictive.combined,
              p.non_predictive.combined, p.predictive.missed_pct,
              p.non_predictive.missed_pct});
  }
  t.print(std::cout);
  const std::string csv = out + "_" + pattern + ".csv";
  if (t.writeCsv(csv)) {
    std::cout << "(written to " << csv << ")\n";
  }
  return 0;
}

void usage() {
  std::cout << "usage: rtdrm <profile|fit|episode|sweep> [options]\n"
               "       rtdrm <subcommand> --help for details\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  // Shift so each subcommand parses its own options.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (cmd == "profile") {
    return cmdProfile(sub_argc, sub_argv);
  }
  if (cmd == "fit") {
    return cmdFit(sub_argc, sub_argv);
  }
  if (cmd == "episode") {
    return cmdEpisode(sub_argc, sub_argv);
  }
  if (cmd == "sweep") {
    return cmdSweep(sub_argc, sub_argv);
  }
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage();
    return 0;
  }
  std::cerr << "unknown subcommand '" << cmd << "'\n";
  usage();
  return 1;
}
