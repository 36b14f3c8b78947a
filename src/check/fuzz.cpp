#include "check/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "obs/obs.hpp"
#include "sim/trace.hpp"

namespace rtdrm::check {

namespace {

/// Hex-float append: byte-exact round-trip of every double in the digest
/// (decimal formatting could collapse adjacent values).
void appendHex(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a,", v);
  out += buf;
}

void appendCount(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ',';
}

/// One reconciliation line: appended only when the sources disagree.
void reconcile(std::string& out, const char* what, std::uint64_t obs_value,
               std::uint64_t metrics_value, std::uint64_t oracle_value) {
  if (obs_value == metrics_value && metrics_value == oracle_value) {
    return;
  }
  out += what;
  out += ": obs=" + std::to_string(obs_value) +
         " metrics=" + std::to_string(metrics_value) +
         " oracle=" + std::to_string(oracle_value) + "\n";
}

}  // namespace

std::string FuzzSpec::cliFlags() const {
  std::string out;
  for (auto d = kFuzzDimensions.rbegin(); d != kFuzzDimensions.rend(); ++d) {
    if (has(d->dim)) {
      out += std::string(" --") + d->flag;
    }
  }
  if (max_subtasks > 0) {
    out += " --max-subtasks=" + std::to_string(max_subtasks);
  }
  if (max_periods > 0) {
    out += " --max-periods=" + std::to_string(max_periods);
  }
  if (flatten_workload) {
    out += " --flat";
  }
  return out;
}

std::string FuzzScenario::summary() const {
  std::ostringstream os;
  double lo = workload_tracks.empty() ? 0.0 : workload_tracks.front();
  double hi = lo;
  for (std::uint64_t p = 0; p < periods && p < workload_tracks.size(); ++p) {
    lo = std::min(lo, workload_tracks[p]);
    hi = std::max(hi, workload_tracks[p]);
  }
  os << "seed=" << seed << " nodes=" << node_count << " stages="
     << spec.stageCount() << " periods=" << periods << " period="
     << spec.period.ms() << "ms deadline=" << spec.deadline.ms()
     << "ms workload=[" << lo << ".." << hi << "] tracks"
     << (coresident_tracks.empty() ? "" : " +coresident")
     << (manager.action_latency > SimDuration::zero() ? " +action-latency"
                                                      : "")
     << (manager.allow_load_shedding ? " +shedding" : "");
  if (!faults.empty()) {
    os << " +faults(crash=" << faults.crashes.size()
       << " throttle=" << faults.throttles.size()
       << " link=" << faults.links.size()
       << " clock=" << faults.clock_outages.size() << ")";
  }
  if (managers > 1) {
    os << " +managers(" << managers
       << " crash=" << faults.manager_crashes.size() << ")";
  }
  if (sched != node::SchedPolicy::kRoundRobin) {
    os << " sched=" << node::schedPolicyName(sched);
  }
  if (manager.allow_period_adjust) {
    os << " +period-adjust(max=" << spec.effectiveMaxPeriod().ms()
       << "ms step=" << manager.period_adjust_step << ")";
  }
  if (net_kind == net::NetKind::kSwitched) {
    os << " net=switched(" << fabric.segments << "x"
       << net::fabricTopologyName(fabric.topology)
       << " buf=" << fabric.port_buffer_frames << ")";
  }
  if (workload_mix != workload::WorkloadMix::kPaper) {
    os << " workload=" << workload::workloadMixName(workload_mix);
    if (workload_mix == workload::WorkloadMix::kMulti) {
      os << "(" << contenders.flows << " flows)";
    }
  }
  return os.str();
}

FuzzScenario makeFuzzScenario(std::uint64_t seed, const FuzzSpec& spec) {
  // Every draw below happens unconditionally and in a fixed order, so the
  // same seed yields the same scenario no matter which dimensions and caps
  // apply.
  RngStreams streams(seed);
  Xoshiro256 g = streams.get("fuzz-gen");

  FuzzScenario s;
  s.seed = seed;
  s.node_count = static_cast<std::size_t>(g.uniformInt(2, 8));

  const auto n_full = static_cast<std::size_t>(g.uniformInt(2, 6));
  s.spec.name = "F";
  s.spec.name += std::to_string(seed);
  s.spec.subtasks.resize(n_full);
  for (std::size_t i = 0; i < n_full; ++i) {
    task::SubtaskSpec& st = s.spec.subtasks[i];
    st.name = "st" + std::to_string(i + 1);
    st.cost.beta_ms = g.uniform(0.3, 1.5);
    st.cost.alpha_ms = g.uniform(0.0, 0.02);
    st.replicable = g.uniform01() < 0.5;
    st.noise_sigma = g.uniform(0.0, 0.08);
  }
  s.spec.messages.resize(n_full - 1);
  for (std::size_t i = 0; i + 1 < n_full; ++i) {
    s.spec.messages[i].bytes_per_track = g.uniform(20.0, 160.0);
  }

  const double period_ms = g.uniform(100.0, 1000.0);
  s.spec.period = SimDuration::millis(period_ms);
  s.spec.deadline = SimDuration::millis(period_ms * g.uniform(0.5, 1.0));

  const auto periods_full = static_cast<std::uint64_t>(g.uniformInt(8, 40));

  // Workload table: concatenated segments of holds, ramps, bursts, and
  // dropouts between a drawn min/max band. Dropouts stay strictly positive
  // (an all-zero period would make every latency estimate zero, which EQF
  // rejects by contract).
  const double min_tracks = g.uniform(50.0, 300.0);
  const double max_tracks = g.uniform(500.0, 3000.0);
  const double dropout_tracks = std::max(5.0, min_tracks * 0.1);
  double level = g.uniform(min_tracks, max_tracks);
  while (s.workload_tracks.size() < periods_full) {
    const std::int64_t kind = g.uniformInt(0, 3);
    const auto len = static_cast<std::uint64_t>(g.uniformInt(2, 10));
    if (kind == 0) {  // hold
      level = g.uniform(min_tracks, max_tracks);
      for (std::uint64_t p = 0; p < len; ++p) {
        s.workload_tracks.push_back(level);
      }
    } else if (kind == 1) {  // linear ramp to a new level
      const double target = g.uniform(min_tracks, max_tracks);
      for (std::uint64_t p = 0; p < len; ++p) {
        const double f = static_cast<double>(p + 1) / static_cast<double>(len);
        s.workload_tracks.push_back(level + (target - level) * f);
      }
      level = target;
    } else if (kind == 2) {  // burst to the band maximum
      const std::uint64_t blen = std::min<std::uint64_t>(len, 3);
      for (std::uint64_t p = 0; p < blen; ++p) {
        s.workload_tracks.push_back(max_tracks);
      }
    } else {  // dropout
      const std::uint64_t dlen = std::min<std::uint64_t>(len, 3);
      for (std::uint64_t p = 0; p < dlen; ++p) {
        s.workload_tracks.push_back(dropout_tracks);
      }
    }
  }
  s.workload_tracks.resize(periods_full);

  // Background-load plan: initial per-node targets plus a few step changes.
  s.background_targets.resize(s.node_count);
  for (std::size_t i = 0; i < s.node_count; ++i) {
    s.background_targets[i] = g.uniform(0.0, 0.4);
  }
  const std::int64_t n_steps = g.uniformInt(0, 3);
  for (std::int64_t i = 0; i < n_steps; ++i) {
    BackgroundStep step;
    step.period = static_cast<std::uint64_t>(
        g.uniformInt(1, static_cast<std::int64_t>(periods_full) - 1));
    step.node = static_cast<std::uint32_t>(
        g.uniformInt(0, static_cast<std::int64_t>(s.node_count) - 1));
    step.target = g.uniform(0.0, 0.6);
    s.background_steps.push_back(step);
  }

  // Optional co-resident task posting into the shared ledger (eq. 5's sum).
  if (g.uniform01() < 0.5) {
    s.coresident_tracks.resize(periods_full);
    for (std::uint64_t p = 0; p < periods_full; ++p) {
      s.coresident_tracks[p] = g.uniform(0.0, max_tracks * 0.5);
    }
  }

  // Manager knobs around the paper's Table-1 values.
  s.manager.monitor.slack_fraction = g.uniform(0.15, 0.3);
  s.manager.monitor.shutdown_slack_fraction = g.uniform(0.5, 0.7);
  s.manager.monitor.shutdown_hysteresis =
      static_cast<int>(g.uniformInt(2, 4));
  s.manager.action_latency = g.uniform01() < 0.3
                                 ? SimDuration::millis(g.uniform(1.0, 20.0))
                                 : SimDuration::zero();
  s.manager.allow_load_shedding = g.uniform01() < 0.3;

  // ---- fault-schedule draws ---------------------------------------------
  // Drawn for every seed, strictly after every base-scenario draw, so the
  // base scenario is byte-identical whether or not faults are applied.
  fault::FaultPlan plan;
  plan.seed = seed ^ 0x9E3779B97F4A7C15ULL;
  const double horizon_ms = period_ms * static_cast<double>(periods_full);
  const auto nodes_i64 = static_cast<std::int64_t>(s.node_count);

  // Crashes: up to two distinct nodes, never node 0 — it runs the
  // heartbeat detector (which cannot declare its own home dead).
  const std::int64_t n_crashes =
      g.uniformInt(0, std::min<std::int64_t>(2, nodes_i64 - 1));
  std::vector<std::uint32_t> crashed;
  for (std::int64_t i = 0; i < 2; ++i) {
    auto node = static_cast<std::uint32_t>(g.uniformInt(1, nodes_i64 - 1));
    const double at_frac = g.uniform(0.1, 0.6);
    const bool restarts = g.uniform01() < 0.5;
    const double restart_periods = g.uniform(1.5, 5.0);
    if (i >= n_crashes) {
      continue;  // candidate drawn but unused (keeps the draw count fixed)
    }
    while (std::find(crashed.begin(), crashed.end(), node) != crashed.end()) {
      node = 1 + (node % static_cast<std::uint32_t>(nodes_i64 - 1));
    }
    crashed.push_back(node);
    fault::CrashFault c;
    c.node = ProcessorId{node};
    c.at = SimTime::zero() + SimDuration::millis(horizon_ms * at_frac);
    if (restarts) {
      c.restart_at =
          c.at + SimDuration::millis(period_ms * restart_periods);
    }
    plan.crashes.push_back(c);
  }

  // CPU throttle windows: distinct nodes (the injector applies edges
  // last-write-wins, so overlapping same-node windows would interleave).
  const std::int64_t n_throttles =
      g.uniformInt(0, std::min<std::int64_t>(2, nodes_i64));
  std::vector<std::uint32_t> throttled;
  for (std::int64_t i = 0; i < 2; ++i) {
    auto node = static_cast<std::uint32_t>(g.uniformInt(0, nodes_i64 - 1));
    const double from_frac = g.uniform(0.05, 0.6);
    const double len_periods = g.uniform(1.0, 5.0);
    const double factor = g.uniform(0.3, 0.9);
    if (i >= n_throttles) {
      continue;
    }
    while (std::find(throttled.begin(), throttled.end(), node) !=
           throttled.end()) {
      node = (node + 1) % static_cast<std::uint32_t>(nodes_i64);
    }
    throttled.push_back(node);
    fault::ThrottleFault t;
    t.node = ProcessorId{node};
    t.from = SimTime::zero() + SimDuration::millis(horizon_ms * from_frac);
    t.until = t.from + SimDuration::millis(period_ms * len_periods);
    t.factor = factor;
    plan.throttles.push_back(t);
  }

  // Frame loss / duplication windows. Loss stays moderate: a lost frame
  // retransmits, so loss trades wire time for delay and must not starve
  // the heartbeat path outright.
  const std::int64_t n_links = g.uniformInt(0, 2);
  for (std::int64_t i = 0; i < 2; ++i) {
    const bool src_any = g.uniform01() < 0.5;
    const auto src = static_cast<std::uint32_t>(g.uniformInt(0, nodes_i64 - 1));
    const bool dst_any = g.uniform01() < 0.5;
    const auto dst = static_cast<std::uint32_t>(g.uniformInt(0, nodes_i64 - 1));
    const double from_frac = g.uniform(0.05, 0.7);
    const double len_periods = g.uniform(0.5, 4.0);
    const double loss = g.uniform(0.0, 0.5);
    const double dup = g.uniform(0.0, 0.3);
    if (i >= n_links) {
      continue;
    }
    fault::LinkFault l;
    l.src = src_any ? fault::kAnyNode : ProcessorId{src};
    l.dst = dst_any ? fault::kAnyNode : ProcessorId{dst};
    l.from = SimTime::zero() + SimDuration::millis(horizon_ms * from_frac);
    l.until = l.from + SimDuration::millis(period_ms * len_periods);
    l.loss = loss;
    l.dup = dup;
    plan.links.push_back(l);
  }

  // Clock-sync outage: at most one window.
  const std::int64_t n_outages = g.uniformInt(0, 1);
  {
    const double from_frac = g.uniform(0.1, 0.7);
    const double len_periods = g.uniform(0.5, 3.0);
    if (n_outages > 0) {
      fault::ClockOutage o;
      o.from = SimTime::zero() + SimDuration::millis(horizon_ms * from_frac);
      o.until = o.from + SimDuration::millis(period_ms * len_periods);
      plan.clock_outages.push_back(o);
    }
  }

  // Decentralized-plane draws: appended after every node-fault draw, so
  // both the base scenario and the node-fault schedule of a seed are
  // byte-identical with and without manager faults.
  const auto managers_draw = static_cast<std::size_t>(g.uniformInt(2, 3));
  const auto mgr_target_draw =
      static_cast<std::uint32_t>(g.uniformInt(0, 7));
  const double mgr_crash_frac = g.uniform(0.15, 0.55);
  const bool mgr_restarts = g.uniform01() < 0.5;
  const double mgr_restart_periods = g.uniform(2.0, 6.0);

  // Scheduler and elastic-period draws: appended after the manager-plane
  // draws, so every narrower configuration of the seed keeps its exact
  // scenario (base, faults, plane) whether or not these dimensions apply.
  const auto sched_draw = static_cast<node::SchedPolicy>(g.uniformInt(
      0, static_cast<std::int64_t>(node::SchedPolicy::kLlf)));
  const double max_period_mult = g.uniform(1.25, 2.5);
  const double period_step_draw = g.uniform(0.1, 0.5);

  // Network-topology and workload-mix draws: appended after the sched and
  // elastic-period draws, so every narrower configuration of the seed keeps
  // its exact scenario whether or not these dimensions apply.
  const bool net_switched_draw = g.uniform01() < 0.75;
  const auto segments_draw =
      static_cast<std::size_t>(g.uniformInt(2, 4));
  const auto topo_draw = g.uniform01() < 0.5 ? net::FabricTopology::kLine
                                             : net::FabricTopology::kStar;
  const auto port_buffer_draw =
      static_cast<std::size_t>(g.uniformInt(8, 48));
  const auto mix_draw = static_cast<workload::WorkloadMix>(g.uniformInt(
      1, static_cast<std::int64_t>(workload::WorkloadMix::kMulti)));
  const double pareto_tail_draw = g.uniform(1.2, 2.5);
  const double pareto_scale_draw = g.uniform(0.2, 0.8);
  const double surge_join_draw = g.uniform(0.3, 1.0);
  const auto surge_sensors_draw =
      static_cast<std::size_t>(g.uniformInt(2, 5));
  const auto contender_flows_draw =
      static_cast<std::size_t>(g.uniformInt(1, 4));
  const double contender_payload_draw = g.uniform(4000.0, 40000.0);

  if (spec.has(FuzzDim::kManagerFaults)) {
    s.managers = std::min(managers_draw, s.node_count);
    fault::ManagerCrashFault mc;
    mc.manager = mgr_target_draw % static_cast<std::uint32_t>(s.managers);
    mc.at =
        SimTime::zero() + SimDuration::millis(horizon_ms * mgr_crash_frac);
    if (mgr_restarts) {
      mc.restart_at =
          mc.at + SimDuration::millis(period_ms * mgr_restart_periods);
    }
    plan.manager_crashes.push_back(mc);
  }
  if (!spec.has(FuzzDim::kFaults)) {
    plan.crashes.clear();
    plan.throttles.clear();
    plan.links.clear();
    plan.clock_outages.clear();
  }
  if (spec.has(FuzzDim::kFaults) || spec.has(FuzzDim::kManagerFaults)) {
    s.faults = std::move(plan);
  }
  if (spec.has(FuzzDim::kSched)) {
    s.sched = sched_draw;
  }
  if (spec.has(FuzzDim::kPeriodAdjust)) {
    s.spec.max_period = SimDuration::millis(period_ms * max_period_mult);
    s.manager.allow_period_adjust = true;
    s.manager.period_adjust_step = period_step_draw;
  }
  if (spec.has(FuzzDim::kNetTopology) && net_switched_draw) {
    s.net_kind = net::NetKind::kSwitched;
    s.fabric.segments = std::min(segments_draw, s.node_count);
    s.fabric.topology = topo_draw;
    s.fabric.port_buffer_frames = port_buffer_draw;
  }
  if (spec.has(FuzzDim::kWorkloadMix)) {
    s.workload_mix = mix_draw;
    if (mix_draw == workload::WorkloadMix::kPareto) {
      // Heavy-tailed rewrite of the offered table, anchored on the band
      // already drawn for the base scenario. Generator draws are pure
      // per-period functions, so the rewrite itself consumes no RNG state.
      workload::ParetoParams pp;
      pp.floor = DataSize::tracks(min_tracks);
      pp.scale = DataSize::tracks(max_tracks * pareto_scale_draw);
      pp.tail_index = pareto_tail_draw;
      pp.cap = DataSize::tracks(max_tracks * 4.0);
      const workload::ParetoArrivals gen(pp, seed);
      for (std::uint64_t p = 0; p < periods_full; ++p) {
        s.workload_tracks[p] = gen.at(p).count();
      }
    } else if (mix_draw == workload::WorkloadMix::kSurge) {
      workload::SurgeParams sp;
      sp.baseline = DataSize::tracks(min_tracks);
      sp.amplitude = DataSize::tracks(
          (max_tracks - min_tracks) /
          static_cast<double>(surge_sensors_draw));
      sp.join_probability = surge_join_draw;
      const workload::CorrelatedSurge gen(sp, surge_sensors_draw, seed);
      const auto fused = gen.fusedPattern();
      for (std::uint64_t p = 0; p < periods_full; ++p) {
        s.workload_tracks[p] = fused->at(p).count();
      }
    } else {  // kMulti keeps the table; contender flows ride the substrate
      s.contenders.flows = contender_flows_draw;
      s.contenders.payload = Bytes::of(contender_payload_draw);
      s.contenders.period = SimDuration::millis(period_ms * 0.25);
      s.contenders.seed = seed ^ 0x9E3779B97F4A7C15ULL;
    }
  }

  // ---- all RNG draws done; apply the shrink caps by truncation ----------

  std::size_t n = n_full;
  if (spec.max_subtasks > 0) {
    n = std::min(n_full, std::max<std::size_t>(2, spec.max_subtasks));
  }
  s.spec.subtasks.resize(n);
  s.spec.messages.resize(n - 1);
  // The monitor only ever acts on replicable stages; keep at least one so
  // every scenario exercises the allocators.
  bool any_replicable = false;
  for (const task::SubtaskSpec& st : s.spec.subtasks) {
    any_replicable = any_replicable || st.replicable;
  }
  if (!any_replicable) {
    s.spec.subtasks.back().replicable = true;
  }

  s.periods = periods_full;
  if (spec.max_periods > 0) {
    s.periods =
        std::min(periods_full, std::max<std::uint64_t>(3, spec.max_periods));
  }

  if (spec.flatten_workload) {
    double mean = 0.0;
    for (std::uint64_t p = 0; p < s.periods; ++p) {
      mean += s.workload_tracks[p];
    }
    mean /= static_cast<double>(s.periods);
    std::fill(s.workload_tracks.begin(), s.workload_tracks.end(), mean);
  }

  s.manager.d_init = DataSize::tracks(s.workload_tracks.front());

  // Ground-truth-derived planning models: eq.-3 coefficients seeded from
  // the true cost with first-order contention inflation in u. The oracle's
  // invariants must hold for *any* models, so accuracy is not the point —
  // plausibility is, so both allocators make non-degenerate decisions.
  s.models.exec.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    regress::ExecLatencyModel& m = s.models.exec[i];
    m.a3 = s.spec.subtasks[i].cost.alpha_ms;
    m.a2 = s.spec.subtasks[i].cost.alpha_ms;
    m.b3 = s.spec.subtasks[i].cost.beta_ms;
    m.b2 = s.spec.subtasks[i].cost.beta_ms;
  }

  s.spec.validate();
  return s;
}

FuzzCaseResult runFuzzCase(const FuzzScenario& scenario, AllocatorKind kind,
                           obs::Observability* obs) {
  experiments::EpisodeConfig config;
  config.scenario.node_count = scenario.node_count;
  config.scenario.seed = scenario.seed;
  config.scenario.cpu.policy = scenario.sched;
  config.scenario.net_kind = scenario.net_kind;
  config.scenario.fabric = scenario.fabric;
  // The fuzz plan drives per-node targets itself.
  config.scenario.ambient_load = Utilization::zero();
  config.periods = scenario.periods;
  config.drain_periods = 2.0;
  config.manager = scenario.manager;
  // The plane (built only when the scenario drew more than one manager
  // endpoint, so every single-manager digest is untouched) gossips at a
  // cadence scaled to the task period; the endpoint detector reuses the
  // node detector's configuration.
  config.plane =
      core::PlaneConfig::scaledTo(scenario.spec.period, scenario.managers);
  config.manager_detector = scenario.detector;
  config.workload_mix = scenario.workload_mix;
  config.contenders = scenario.contenders;

  const TablePattern pattern(scenario.workload_tracks);
  sim::TraceRecorder trace;
  // An empty plan builds no injector and no node detector, so the run is
  // byte-identical to a faultless build. The episode is declared before
  // the oracle so it is destroyed after it: the oracle's destructor
  // detaches itself from the simulator, network and injector it watches.
  experiments::Episode episode(
      config, kind, {{scenario.spec, &pattern, &scenario.models, 0}},
      scenario.faults.empty() ? std::nullopt
                              : std::optional<fault::FaultPlan>(
                                    scenario.faults));
  apps::Scenario& testbed = episode.scenario();

  for (std::size_t i = 0; i < scenario.node_count; ++i) {
    testbed.cluster()
        .backgroundLoad(ProcessorId{static_cast<std::uint32_t>(i)})
        .setTarget(Utilization::fraction(scenario.background_targets[i]));
  }
  for (const BackgroundStep& step : scenario.background_steps) {
    if (step.period >= scenario.periods) {
      continue;
    }
    testbed.sim().scheduleAt(
        SimTime::zero() +
            scenario.spec.period * static_cast<double>(step.period),
        [&cluster = testbed.cluster(), step] {
          cluster.backgroundLoad(ProcessorId{step.node})
              .setTarget(Utilization::fraction(step.target));
        });
  }

  core::WorkloadLedger& ledger = episode.ledger();
  core::WorkloadLedger::TaskId co_id{};
  if (!scenario.coresident_tracks.empty()) {
    co_id = ledger.registerTask("co-resident");
  }

  OracleConfig oracle_config;
  // Recovery budget: twice the detector's worst-case detection latency
  // (timeout plus one declaring tick per retry plus one interval) plus two
  // task periods for the manager to re-place and settle.
  oracle_config.recovery_grace_ms =
      2.0 * (scenario.detector.timeout.ms() +
             static_cast<double>(scenario.detector.max_retries + 1) *
                 scenario.detector.interval.ms()) +
      2.0 * scenario.spec.period.ms();
  InvariantOracle oracle(oracle_config);
  oracle.watch(testbed.sim());
  oracle.watch(testbed.cluster());
  oracle.watch(testbed.net());
  oracle.watch(ledger);

  core::ResourceManager& manager = episode.manager();
  manager.attachTrace(trace);
  if (obs != nullptr) {
    manager.attachObs(*obs);
  }
  oracle.watch(manager);
  core::ManagementPlane* plane = episode.plane();
  if (plane != nullptr) {
    if (obs != nullptr) {
      plane->attachObs(*obs);
    }
    oracle.watch(*plane);
  }

  // Co-resident task posting its per-period workload into the ledger.
  std::unique_ptr<sim::PeriodicActivity> poster;
  if (!scenario.coresident_tracks.empty()) {
    poster = std::make_unique<sim::PeriodicActivity>(
        testbed.sim(), scenario.spec.period,
        [&ledger, co_id, &scenario](std::uint64_t c) {
          const std::vector<double>& t = scenario.coresident_tracks;
          const std::size_t i =
              c < t.size() ? static_cast<std::size_t>(c) : t.size() - 1;
          ledger.post(co_id, DataSize::tracks(t[i]));
        });
    episode.addActivity([p = poster.get()](SimTime at) { p->start(at); },
                        [p = poster.get()] { p->stop(); });
  }

  // Fault path: the episode's injector compiles the plan into events, a
  // heartbeat detector over the nodes drives the manager's failover, and
  // the oracle times recovery.
  fault::FaultInjector* injector = episode.injector();
  std::unique_ptr<fault::FailureDetector> detector;
  if (injector != nullptr) {
    oracle.watch(*injector);
    detector = std::make_unique<fault::FailureDetector>(
        testbed.sim(), testbed.cluster(), testbed.net(), scenario.detector,
        [&manager, &cluster = testbed.cluster(), plane](ProcessorId pid) {
          // Heavy frame loss can delay acks past the timeout and declare a
          // live node dead; failover only makes sense for real crashes.
          if (!cluster.isUp(pid)) {
            // With a decentralized plane the death routes through it: only
            // a live active repairs placements, anything else is queued
            // for the next election.
            if (plane != nullptr) {
              plane->handleNodeFailure(pid);
            } else {
              manager.handleNodeFailure(pid);
            }
          }
        },
        [&manager, &cluster = testbed.cluster(), plane](ProcessorId pid) {
          if (cluster.isUp(pid)) {
            if (plane != nullptr) {
              plane->handleNodeRestart(pid);
            } else {
              manager.handleNodeRestart(pid);
            }
          }
        });
    episode.addActivity([d = detector.get()](SimTime at) { d->start(at); },
                        [d = detector.get()] { d->stop(); });
  }

  episode.run();
  oracle.sweep();

  FuzzCaseResult out;
  out.violations = oracle.violationCount();
  out.checks = oracle.checksRun();
  if (!oracle.ok()) {
    out.report = oracle.report();
  }

  // Fabric frame conservation: the NACK path delays frames, it never
  // destroys them, so at every instant (including now, mid-drain if
  // anything is still queued) chunked == arrived + live recount.
  if (scenario.net_kind == net::NetKind::kSwitched) {
    const net::SwitchedFabric& fab = testbed.fabric();
    ++out.checks;
    if (fab.framesOriginated() !=
        fab.framesArrived() + fab.framesInFabric()) {
      ++out.violations;
      out.report += "fabric frame conservation violated: originated=" +
                    std::to_string(fab.framesOriginated()) +
                    " arrived=" + std::to_string(fab.framesArrived()) +
                    " in-fabric=" + std::to_string(fab.framesInFabric()) +
                    "\n";
    }
  }

  // Byte-exact digest of everything observable about the run.
  std::string& d = out.digest;
  for (const sim::TraceEvent& e : trace.events()) {
    appendHex(d, e.at.ms());
    d += sim::traceCategoryName(e.category);
    d += ',';
    d += e.label;
    d += ',';
    appendHex(d, e.value);
    d += '\n';
  }
  const core::EpisodeMetrics& m = manager.metrics();
  appendHex(d, m.missedRatio());
  appendHex(d, m.cpu_utilization.mean());
  appendHex(d, m.net_utilization.mean());
  appendHex(d, m.replicas_per_subtask.mean());
  appendHex(d, m.end_to_end_ms.mean());
  appendHex(d, m.shed_fraction.mean());
  appendCount(d, m.replicate_actions);
  appendCount(d, m.shutdown_actions);
  appendCount(d, m.allocation_failures);
  appendCount(d, trace.dropped());
  appendCount(d, testbed.net().messagesDelivered());
  appendCount(d, testbed.net().framesOnWire());
  appendHex(d, testbed.net().payloadBytesCarried());
  appendHex(d, testbed.sim().now().ms());
  appendCount(d, oracle.checksRun());
  if (injector != nullptr) {
    appendCount(d, injector->crashesInjected());
    appendCount(d, injector->restartsInjected());
    appendCount(d, injector->throttleEdges());
    appendCount(d, detector->heartbeatsSent());
    appendCount(d, detector->acksReceived());
    appendCount(d, detector->declaredDead());
    appendCount(d, detector->declaredRecovered());
    appendCount(d, testbed.net().framesLost());
    appendCount(d, testbed.net().framesDuplicated());
    appendCount(d, testbed.clocks().syncRoundsSkipped());
    appendCount(d, m.node_failures_handled);
    appendCount(d, m.failover_replacements);
    appendCount(d, m.recovery_allocation_failures);
  }
  // Both sections keyed on the scenario, not runtime state, so a digest is
  // comparable across runs of the same scenario; absent in the baseline
  // configuration so every historical digest is untouched.
  if (scenario.sched != node::SchedPolicy::kRoundRobin) {
    d += node::schedPolicyName(scenario.sched);
    d += ',';
  }
  if (scenario.manager.allow_period_adjust) {
    appendCount(d, m.period_dilations);
    appendCount(d, m.period_contractions);
    appendHex(d, m.period_scale.mean());
    appendHex(d, manager.currentPeriod().ms());
  }
  if (plane != nullptr) {
    appendCount(d, plane->gossipRounds());
    appendCount(d, plane->gossipMessagesSent());
    appendCount(d, plane->summariesApplied());
    appendCount(d, plane->elections());
    appendCount(d, plane->epoch());
    appendCount(d, m.suppressed_decision_periods);
    appendHex(d, plane->decisionGapMs());
    appendHex(d, plane->maxStalenessObservedMs());
    const fault::FailureDetector& mgr_detector = *episode.managerDetector();
    appendCount(d, mgr_detector.heartbeatsSent());
    appendCount(d, mgr_detector.acksReceived());
    appendCount(d, mgr_detector.declaredDead());
    appendCount(d, mgr_detector.declaredRecovered());
  }
  // Fabric and workload-mix sections: keyed on the scenario and absent in
  // the baseline configuration, so every historical digest is untouched.
  if (scenario.net_kind == net::NetKind::kSwitched) {
    const net::SwitchedFabric& fab = testbed.fabric();
    d += net::fabricTopologyName(scenario.fabric.topology);
    d += ',';
    appendCount(d, scenario.fabric.segments);
    appendCount(d, fab.framesOriginated());
    appendCount(d, fab.framesArrived());
    appendCount(d, fab.framesDropped());
  }
  if (scenario.workload_mix != workload::WorkloadMix::kPaper) {
    d += workload::workloadMixName(scenario.workload_mix);
    d += ',';
    if (episode.contenders() != nullptr) {
      appendCount(d, episode.contenders()->messagesPosted());
    }
  }

  // Observability reconciliation: the obs trace/registry, EpisodeMetrics,
  // and the oracle's independent observation counters must tell the same
  // story. Runs strictly after the digest so an attached obs bundle can
  // never perturb it.
  if (obs != nullptr) {
    testbed.sim().exportMetrics(obs->metrics);
    testbed.net().exportMetrics(obs->metrics);
    testbed.cluster().exportMetrics(obs->metrics);
    manager.exportMetrics(obs->metrics);
    if (detector != nullptr) {
      detector->exportMetrics(obs->metrics);
    }
    if (plane != nullptr) {
      plane->exportMetrics(obs->metrics);
    }

    std::string& r = out.obs_mismatch;
    const obs::TraceBuffer& tb = obs->trace;
    reconcile(r, "misses", tb.count(obs::RecordKind::kMiss),
              m.missed_deadlines.hits(), oracle.missesObserved());
    reconcile(r, "effective-replications",
              tb.count(obs::RecordKind::kReplicate), m.replicate_actions,
              oracle.effectiveAllocationsObserved());
    reconcile(r, "shutdowns", tb.count(obs::RecordKind::kShutdown),
              m.shutdown_actions, m.shutdown_actions);
    reconcile(r, "allocation-failures",
              tb.count(obs::RecordKind::kAllocFailure), m.allocation_failures,
              m.allocation_failures);
    const obs::Counter* delivered =
        obs->metrics.findCounter("net.messages_delivered");
    reconcile(r, "deliveries", delivered != nullptr ? delivered->value() : 0,
              testbed.net().messagesDelivered(),
              oracle.receiptsObserved());
    const obs::Counter* reg_misses =
        obs->metrics.findCounter("core.missed_deadlines");
    reconcile(r, "registry-misses",
              reg_misses != nullptr ? reg_misses->value() : 0,
              m.missed_deadlines.hits(), oracle.missesObserved());
    const obs::Counter* reg_repl =
        obs->metrics.findCounter("core.replicate_actions");
    reconcile(r, "registry-replications",
              reg_repl != nullptr ? reg_repl->value() : 0,
              m.replicate_actions, oracle.effectiveAllocationsObserved());
  }
  return out;
}

FuzzOutcome runFuzzSeed(std::uint64_t seed, const FuzzSpec& spec) {
  const FuzzScenario scenario = makeFuzzScenario(seed, spec);
  FuzzOutcome out;
  for (const AllocatorKind kind :
       {AllocatorKind::kPredictive, AllocatorKind::kNonPredictive}) {
    const FuzzCaseResult first = runFuzzCase(scenario, kind);
    out.checks += first.checks;
    if (first.violations > 0) {
      out.invariants_ok = false;
      out.violations += first.violations;
      if (out.detail.empty()) {
        out.detail = std::string(allocatorKindName(kind)) + ": " +
                     first.report;
      }
    }
    // Replay with the identical scenario: any divergence means hidden
    // nondeterminism (iteration order, uninitialized state, time leaks).
    const FuzzCaseResult replay = runFuzzCase(scenario, kind);
    if (replay.digest != first.digest) {
      out.deterministic = false;
      if (out.detail.empty()) {
        out.detail = std::string(allocatorKindName(kind)) +
                     ": replay digest diverged (" +
                     std::to_string(first.digest.size()) + " vs " +
                     std::to_string(replay.digest.size()) + " bytes)";
      }
    }
  }
  return out;
}

FuzzSpec minimize(std::uint64_t seed, const FuzzSpec& initial,
                  const FailsFn& fails) {
  FuzzSpec current = initial;
  bool improved = true;
  while (improved) {
    improved = false;
    const FuzzScenario s = makeFuzzScenario(seed, current);

    // Simplest explanation first: does the failure survive without each
    // dimension, in kFuzzDimensions order?
    for (const FuzzDimension& d : kFuzzDimensions) {
      if (!current.has(d.dim)) {
        continue;
      }
      FuzzSpec c = current;
      c.set(d.dim, false);
      if (fails(seed, c)) {
        current = c;
        improved = true;
        break;
      }
    }
    if (improved) {
      continue;
    }

    // Fewer subtasks: jump straight to the floor, else one less.
    if (s.spec.stageCount() > 2) {
      for (const std::size_t target :
           {static_cast<std::size_t>(2), s.spec.stageCount() - 1}) {
        FuzzSpec c = current;
        c.max_subtasks = target;
        if (fails(seed, c)) {
          current = c;
          improved = true;
          break;
        }
      }
      if (improved) {
        continue;
      }
    }

    // Shorter horizon: floor, halved, then just one less.
    if (s.periods > 3) {
      for (const std::uint64_t target :
           {static_cast<std::uint64_t>(3), s.periods / 2, s.periods - 1}) {
        if (target >= s.periods) {
          continue;
        }
        FuzzSpec c = current;
        c.max_periods = std::max<std::uint64_t>(3, target);
        if (fails(seed, c)) {
          current = c;
          improved = true;
          break;
        }
      }
      if (improved) {
        continue;
      }
    }

    // Flatter workload.
    if (!current.flatten_workload) {
      FuzzSpec c = current;
      c.flatten_workload = true;
      if (fails(seed, c)) {
        current = c;
        improved = true;
      }
    }
  }
  return current;
}

}  // namespace rtdrm::check
