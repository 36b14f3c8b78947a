// rtdrm — command-line front end to the library.
//
//   rtdrm profile  [--subtask NAME] [--out FILE]      profiling campaign
//   rtdrm fit      [--in FILE] [--joint]              fit eq. 3 on a CSV
//   rtdrm episode  [--pattern P] [--max-tracks N] ... run one episode
//   rtdrm sweep    [--pattern P] [--out PREFIX]       Figs. 9/10-style sweep
//
// Every subcommand accepts --help.
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

/// The flags `episode` and `sweep` share: the episode length, the worker
/// budget, node scheduling, the period lever, the network substrate and the
/// workload mix. Every default is read from a default-constructed
/// EpisodeConfig, so passing a default explicitly is the same as omitting
/// the flag.
class ScenarioFlags {
 public:
  explicit ScenarioFlags(ArgParser& args) {
    const experiments::EpisodeConfig d;
    periods_ = static_cast<std::int64_t>(d.periods);
    sched_ = node::schedPolicyName(d.scenario.cpu.policy);
    period_adjust_ = d.manager.allow_period_adjust ? "on" : "off";
    net_ = net::netKindName(d.scenario.net_kind);
    segments_ = static_cast<std::int64_t>(d.scenario.fabric.segments);
    fabric_topology_ = net::fabricTopologyName(d.scenario.fabric.topology);
    port_buffer_ =
        static_cast<std::int64_t>(d.scenario.fabric.port_buffer_frames);
    workload_ = workload::workloadMixName(d.workload_mix);
    tail_index_ = d.pareto.tail_index;
    contenders_ = static_cast<std::int64_t>(d.contenders.flows);
    args.addInt("periods", "episode length in periods", &periods_)
        .addInt("threads",
                "worker threads (0 = RTDRM_THREADS or cores)", &threads_)
        .addString("sched",
                   "node scheduling policy: rr | fifo | priority | edf | "
                   "rms | llf",
                   &sched_)
        .addString("period-adjust",
                   "off | on (elastic period dilation when the forecast "
                   "rejects replication)",
                   &period_adjust_)
        .addString("net",
                   "network substrate: bus (shared 100 Mbps segment, the "
                   "paper's Table 1) | switched (multi-segment store-and-"
                   "forward fabric)",
                   &net_)
        .addInt("segments", "switch segments (--net switched)", &segments_)
        .addString("fabric-topology", "line | star (--net switched)",
                   &fabric_topology_)
        .addInt("port-buffer",
                "per-egress-port buffer in frames (--net switched)",
                &port_buffer_)
        .addString("workload",
                   "workload mix: paper | pareto (heavy-tailed arrivals) | "
                   "surge (correlated multi-sensor) | multi (paper + "
                   "co-hosted contender flows)",
                   &workload_)
        .addDouble("tail-index",
                   "Pareto tail index alpha (--workload pareto)",
                   &tail_index_)
        .addInt("contenders", "co-hosted contender flows (--workload multi)",
                &contenders_);
  }

  /// Writes the flags into `cfg`, sets the worker budget and validates the
  /// assembled config (set cfg->plane first). On a bad value prints why
  /// and returns false, before any model is fitted.
  bool apply(experiments::EpisodeConfig* cfg) const {
    if (!flagAtLeast("periods", periods_, 1) ||
        !flagAtLeast("segments", segments_, 1) ||
        !flagAtLeast("port-buffer", port_buffer_, 1) ||
        !flagAtLeast("contenders", contenders_, 0)) {
      return false;
    }
    if (!node::parseSchedPolicy(sched_, &cfg->scenario.cpu.policy)) {
      std::cerr << "unknown scheduling policy '" << sched_
                << "' (rr | fifo | priority | edf | rms | llf)\n";
      return false;
    }
    if (period_adjust_ != "off" && period_adjust_ != "on") {
      std::cerr << "unknown period-adjust mode '" << period_adjust_
                << "' (off | on)\n";
      return false;
    }
    if (!net::parseNetKind(net_, &cfg->scenario.net_kind)) {
      std::cerr << "unknown network model '" << net_
                << "' (bus | switched)\n";
      return false;
    }
    if (!net::parseFabricTopology(fabric_topology_,
                                  &cfg->scenario.fabric.topology)) {
      std::cerr << "unknown fabric topology '" << fabric_topology_
                << "' (line | star)\n";
      return false;
    }
    if (!workload::parseWorkloadMix(workload_, &cfg->workload_mix)) {
      std::cerr << "unknown workload mix '" << workload_
                << "' (paper | pareto | surge | multi)\n";
      return false;
    }
    if (tail_index_ <= 0.0) {
      std::cerr << "--tail-index must be positive\n";
      return false;
    }
    parallel::setThreads(threads_ < 0 ? 0u : static_cast<unsigned>(threads_));
    cfg->periods = static_cast<std::uint64_t>(periods_);
    cfg->manager.allow_period_adjust = period_adjust_ == "on";
    cfg->scenario.fabric.segments = static_cast<std::size_t>(segments_);
    cfg->scenario.fabric.port_buffer_frames =
        static_cast<std::size_t>(port_buffer_);
    cfg->pareto.tail_index = tail_index_;
    cfg->contenders.flows = static_cast<std::size_t>(contenders_);
    cfg->scenario.cpu.validate();
    cfg->scenario.fabric.validate();
    cfg->plane.validate();
    return true;
  }

 private:
  std::int64_t periods_ = 0;
  std::int64_t threads_ = 0;
  std::string sched_;
  std::string period_adjust_;
  std::string net_;
  std::int64_t segments_ = 0;
  std::string fabric_topology_;
  std::int64_t port_buffer_ = 0;
  std::string workload_;
  double tail_index_ = 0.0;
  std::int64_t contenders_ = 0;
};

int cmdEpisode(int argc, const char* const* argv) {
  std::string pattern = "triangular";
  std::string algorithm = "predictive";
  double max_tracks = 10000.0;
  std::int64_t seed = 42;
  bool refit = false;
  bool histogram = false;
  std::string trace_out;
  std::int64_t managers = 1;
  std::int64_t manager_fault = 0;
  std::int64_t manager_fault_target = 0;
  double manager_restart = 0.0;
  ArgParser args("rtdrm episode", "run one evaluation episode");
  const ScenarioFlags flags(args);
  args.addString("pattern", "increasing | decreasing | triangular", &pattern)
      .addString("algorithm", "predictive | nonpredictive", &algorithm)
      .addDouble("max-tracks", "pattern peak workload", &max_tracks)
      .addInt("seed", "master seed", &seed)
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
  experiments::AlgorithmKind kind{};
  if (parseAlgorithm(algorithm, &kind) != 0) {
    return 1;
  }
  if (!flagAtLeast("managers", managers, 1) ||
      !flagAtLeast("manager-fault", manager_fault, 0) ||
      !flagAtLeast("manager-fault-target", manager_fault_target, 0)) {
    return 1;
  }
  if (manager_fault_target >= managers) {
    std::cerr << "--manager-fault-target must be below --managers (got "
              << manager_fault_target << " with " << managers
              << " managers)\n";
    return 1;
  }
  if (managers == 1 && manager_fault > 0) {
    std::cerr << "--manager-fault needs --managers > 1\n";
    return 1;
  }
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  experiments::EpisodeConfig cfg;
  cfg.scenario.seed = static_cast<std::uint64_t>(seed);
  if (managers > 1) {
    cfg.plane = core::PlaneConfig::scaledTo(spec.period,
                                            static_cast<std::size_t>(managers));
    cfg.manager_crash_at_period = static_cast<std::uint64_t>(manager_fault);
    cfg.manager_fault_target =
        static_cast<std::uint32_t>(manager_fault_target);
    cfg.manager_restart_after_periods = manager_restart;
  }
  if (!flags.apply(&cfg)) {
    return 1;
  }
  std::cout << "[fitting models...]\n";
  const auto fitted =
      experiments::fitAllModels(spec, experiments::defaultModelFitConfig());
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(max_tracks);
  const auto pat = workload::makeFig8Pattern(pattern, ramp);
  cfg.manager.online_refit = refit;
  if (pattern == "decreasing") {
    cfg.manager.d_init = ramp.max_workload;
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
  std::int64_t replications = 1;
  bool serial = false;
  ArgParser args("rtdrm sweep",
                 "both algorithms across max workloads (Figs. 9/10 style)");
  const ScenarioFlags flags(args);
  args.addString("pattern", "increasing | decreasing | triangular", &pattern)
      .addString("out", "output CSV prefix", &out)
      .addInt("replications", "seeds averaged per point", &replications)
      .addFlag("serial", "run sweep points one at a time", &serial);
  if (!args.parse(argc, argv)) {
    return args.helpRequested() ? 0 : 1;
  }
  experiments::SweepConfig cfg;
  if (!flagAtLeast("replications", replications, 1) ||
      !flags.apply(&cfg.episode)) {
    return 1;
  }
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  std::cout << "[fitting models...]\n";
  const auto fitted =
      experiments::fitAllModels(spec, experiments::defaultModelFitConfig());
  cfg.replications = static_cast<std::size_t>(replications);
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
