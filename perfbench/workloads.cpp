#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <optional>

#include "apps/dynbench.hpp"
#include "apps/scenario.hpp"
#include "check/fuzz.hpp"
#include "core/allocators.hpp"
#include "core/ledger.hpp"
#include "core/manager.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"
#include "experiments/multitask.hpp"
#include "obs/obs.hpp"
#include "workload/patterns.hpp"

namespace perfbench {

using namespace rtdrm;
using experiments::AlgorithmKind;

namespace {

// ---- shared pieces --------------------------------------------------------

/// Decision-neutral core::Allocator decorator: forwards every call and
/// times replicate() into the traced op's span log.
class TimedAllocator final : public core::Allocator {
 public:
  TimedAllocator(std::unique_ptr<core::Allocator> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  core::AllocStatus replicate(const core::AllocationContext& ctx,
                              std::size_t stage,
                              task::ReplicaSet& rs) override {
    const std::int64_t t0 = nowNs();
    const core::AllocStatus status = inner_->replicate(ctx, stage, rs);
    const std::int64_t t1 = nowNs();
    log_.add("core.replicate", t0, t1);
    ++calls_;
    ok_ += status == core::AllocStatus::kSuccess ? 1 : 0;
    ns_ += t1 - t0;
    return status;
  }
  std::string name() const override { return inner_->name(); }
  void onModelsRefreshed(const core::PredictiveModels& models) override {
    inner_->onModelsRefreshed(models);
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t ok() const { return ok_; }
  double ms() const { return static_cast<double>(ns_) * 1e-6; }

 private:
  std::unique_ptr<core::Allocator> inner_;
  SpanLog& log_;
  std::uint64_t calls_ = 0;
  std::uint64_t ok_ = 0;
  std::int64_t ns_ = 0;
};

std::unique_ptr<core::Allocator> makeAllocator(
    AlgorithmKind kind, const core::PredictiveModels& models,
    Utilization threshold) {
  if (kind == AlgorithmKind::kPredictive) {
    return std::make_unique<core::PredictiveAllocator>(models);
  }
  return std::make_unique<core::NonPredictiveAllocator>(threshold);
}

const char* kindTag(AlgorithmKind kind) {
  return kind == AlgorithmKind::kPredictive ? "predictive" : "nonpredictive";
}

/// The simulated outcome of one episode (or one task of a multi-task
/// episode), exactly as the public result structs report it.
void digestEpisode(Digest& d, const experiments::EpisodeResult& r) {
  const core::EpisodeMetrics& m = r.metrics;
  d.add("missed_pct", r.missed_pct)
      .add("combined", r.combined)
      .add("cpu_pct", r.cpu_pct)
      .add("net_pct", r.net_pct)
      .add("avg_replicas", r.avg_replicas)
      .add("periods", static_cast<std::uint64_t>(m.missed_deadlines.total()))
      .add("missed", static_cast<std::uint64_t>(m.missed_deadlines.hits()))
      .add("e2e_mean_ms", m.end_to_end_ms.mean())
      .add("replicate", m.replicate_actions)
      .add("shutdown", m.shutdown_actions)
      .add("alloc_fail", m.allocation_failures)
      .add("dilations", m.period_dilations);
}

experiments::EpisodeResult resultOf(const core::ResourceManager& manager,
                                    std::size_t nodes) {
  experiments::EpisodeResult r;
  r.metrics = manager.metrics();
  r.combined = r.metrics.combined(nodes);
  r.missed_pct = r.metrics.missedRatio() * 100.0;
  r.cpu_pct = r.metrics.cpu_utilization.mean() * 100.0;
  r.net_pct = r.metrics.net_utilization.mean() * 100.0;
  r.avg_replicas = r.metrics.replicas_per_subtask.mean();
  return r;
}

/// Reads every substrate's public counters after a hand-wired episode.
void readScenarioCounters(apps::Scenario& sc, Counters& c) {
  sim::Simulator& sim = sc.sim();
  c["sim.events_executed"] += static_cast<double>(sim.eventsExecuted());
  c["sim.events_scheduled"] += static_cast<double>(sim.eventsScheduled());
  c["sim.events_cancelled"] += static_cast<double>(sim.eventsCancelled());
  c["sim.peak_heap_depth"] += static_cast<double>(sim.peakHeapDepth());
  c["sim.sim_s"] += sim.now().ms() * 1e-3;

  node::Cluster& cluster = sc.cluster();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const ProcessorId id{static_cast<std::uint32_t>(i)};
    const node::Processor& p = cluster.processor(id);
    c["node.jobs_completed"] += static_cast<double>(p.jobsCompleted());
    c["node.jobs_aborted"] += static_cast<double>(p.jobsAborted());
    c["node.jobs_rejected"] += static_cast<double>(p.jobsRejected());
    c["node.busy_ms"] += p.busyTime().ms();
    c["node.sched_overhead_ms"] += p.schedOverhead().ms();
    if (cluster.hasBackgroundLoad()) {
      c["node.bg_jobs_injected"] +=
          static_cast<double>(cluster.backgroundLoad(id).jobsInjected());
    }
  }
  c["node.index_rebuilds"] += static_cast<double>(cluster.indexRebuilds());
  c["node.cursor_advances"] += static_cast<double>(cluster.cursorAdvances());
  c["node.samples_taken"] += static_cast<double>(cluster.samplesTaken());

  net::NetworkModel& net = sc.net();
  c["net.frames_on_wire"] += static_cast<double>(net.framesOnWire());
  c["net.messages_delivered"] += static_cast<double>(net.messagesDelivered());
  c["net.payload_bytes"] += net.payloadBytesCarried();
  c["net.busy_ms"] += net.busyTime().ms();
  c["net.frames_dropped"] += static_cast<double>(net.framesDropped());
  c["net.frames_originated"] +=
      static_cast<double>(sc.config().net_kind == net::NetKind::kSwitched
                              ? sc.fabric().framesOriginated()
                              : net.framesOnWire());
}

void readManagerCounters(const core::ResourceManager& m,
                         const TimedAllocator& alloc, Counters& c) {
  const core::EpisodeMetrics& em = m.metrics();
  c["task.periods_released"] +=
      static_cast<double>(m.runner().periodsReleased());
  c["core.replicate_calls"] += static_cast<double>(alloc.calls());
  c["core.replicate_ok"] += static_cast<double>(alloc.ok());
  c["core.replicate_ms"] += alloc.ms();
  c["core.replicate_actions"] += static_cast<double>(em.replicate_actions);
  c["core.shutdown_actions"] += static_cast<double>(em.shutdown_actions);
  c["core.allocation_failures"] +=
      static_cast<double>(em.allocation_failures);
  c["core.period_dilations"] += static_cast<double>(em.period_dilations);
}

/// Records the quality figures of an EpisodeResult or MultiTaskResult.
template <typename Result>
void addQuality(TracedOp& t, AlgorithmKind kind, const Result& r) {
  t.quality.push_back(
      {kind == AlgorithmKind::kPredictive, r.missed_pct, r.combined});
  t.counters["core.avg_replicas"] += r.avg_replicas;
  t.counters["core.cpu_pct"] += r.cpu_pct;
  t.counters["core.net_pct"] += r.net_pct;
}

template <typename Fn>
OpResult guarded(Fn&& fn) {
  OpResult out;
  try {
    fn(out);
  } catch (const std::exception& e) {
    out.fail_kind = "exception";
    out.fail_detail = e.what();
  }
  return out;
}

/// Model fitting, timed under a "profile.fitAllModels" span.
experiments::FittedModelSet fitModels(SpanLog& log) {
  ScopedSpan span(log, "profile.fitAllModels");
  return experiments::fitAllModels(apps::makeAawTaskSpec(),
                                   experiments::defaultModelFitConfig());
}

// ---- paper_sweep ----------------------------------------------------------

/// Figs. 9-13: the three Fig.-8 patterns x 17 max-workload points x both
/// allocators, on the paper's 6-node shared-bus RR testbed, with the
/// episode settings of the repository's figure benches.
class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const WorkloadConfig& cfg)
      : cfg_(cfg), spec_(apps::makeAawTaskSpec()) {
    const experiments::SweepConfig sweep;
    for (const char* pattern : {"increasing", "decreasing", "triangular"}) {
      for (const double units : sweep.max_workload_units) {
        for (const AlgorithmKind kind :
             {AlgorithmKind::kPredictive, AlgorithmKind::kNonPredictive}) {
          ops_.push_back({pattern, units, kind});
        }
      }
    }
  }

  std::string name() const override { return "paper_sweep"; }
  std::size_t opCount() const override { return ops_.size(); }

  std::string describe() const override {
    return std::to_string(ops_.size()) +
           " episodes: 3 Fig.-8 patterns x 17 points x 2 allocators; "
           "6 nodes, shared bus, RR, 72 periods";
  }

  std::string opLabel(std::size_t i) const override {
    const Op& op = ops_[i];
    return std::string(op.pattern) + "@" +
           std::to_string(static_cast<int>(op.units)) +
           "x500/" + kindTag(op.kind);
  }

  void setup(SpanLog& log) override {
    experiments::FittedModelSet fitted = fitModels(log);
    if (!models_) {
      models_ = std::move(fitted.models);
    }
    ScopedSpan span(log, "apps.Scenario");
    patterns_.clear();
    for (const Op& op : ops_) {
      patterns_.push_back(
          workload::makeFig8Pattern(op.pattern, rampFor(op.units)));
    }
    apps::Scenario scenario(episodeConfig(ops_.front()).scenario);
    (void)scenario;
  }

  OpResult run(std::size_t i) override {
    return guarded([&](OpResult& out) {
      const Op& op = ops_[i];
      const experiments::EpisodeResult r = experiments::runEpisode(
          spec_, *patterns_[i], *models_, op.kind, episodeConfig(op));
      digestEpisode(out.outcome, r);
    });
  }

  /// The runEpisode wiring (paper workload mix, one manager, no drift),
  /// inlined so the allocator decorator and the substrates are reachable.
  TracedOp runTraced(std::size_t i, SpanLog& log) override {
    TracedOp t;
    t.result = guarded([&](OpResult& out) {
      const Op& op = ops_[i];
      const experiments::EpisodeConfig config = episodeConfig(op);
      const workload::Pattern* offered = patterns_[i].get();
      obs::Observability obs;

      std::optional<apps::Scenario> scenario;
      {
        ScopedSpan span(log, "apps.Scenario");
        scenario.emplace(config.scenario);
      }
      const task::TaskSpec live_spec = spec_;
      std::vector<ProcessorId> homes;
      for (std::size_t s = 0; s < spec_.stageCount(); ++s) {
        homes.push_back(ProcessorId{
            static_cast<std::uint32_t>(s % config.scenario.node_count)});
      }
      auto alloc = std::make_unique<TimedAllocator>(
          makeAllocator(op.kind, *models_, config.nonpredictive_threshold),
          log);
      TimedAllocator& timed = *alloc;
      core::ResourceManager manager(
          scenario->runtime(), live_spec, task::Placement(homes),
          [offered](std::uint64_t period) { return offered->at(period); },
          std::move(alloc), *models_, config.manager,
          scenario->streams().get("exec-noise"));
      manager.attachObs(obs);

      manager.start(scenario->sim().now());
      scenario->runFor(spec_.period * static_cast<double>(config.periods));
      manager.stop();
      scenario->runFor(spec_.period * config.drain_periods);

      const experiments::EpisodeResult r =
          resultOf(manager, config.scenario.node_count);
      digestEpisode(out.outcome, r);
      readScenarioCounters(*scenario, t.counters);
      readManagerCounters(manager, timed, t.counters);
      addQuality(t, op.kind, r);
    });
    return t;
  }

  std::vector<std::string> checkOutcomes(
      const std::vector<TracedOp>& traced) const override {
    // The paper's headline (Figs. 9-13): over the whole sweep the
    // predictive allocator's combined metric C beats the non-predictive
    // one, and at the lightest load (2 x 500 tracks) it misses nothing.
    std::vector<std::string> bad;
    double c_pred = 0.0;
    double c_non = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      for (const QualitySample& q : traced[i].quality) {
        (q.predictive ? c_pred : c_non) += q.combined;
        if (q.predictive && ops_[i].units == 2.0 && q.missed_pct > 0.0) {
          bad.push_back(opLabel(i) + ": predictive misses " +
                        std::to_string(q.missed_pct) + "% at 2x500 tracks");
        }
      }
    }
    if (!(c_pred < c_non)) {
      bad.push_back("sum of C: predictive " + std::to_string(c_pred) +
                    " is not below non-predictive " + std::to_string(c_non));
    }
    return bad;
  }

 private:
  struct Op {
    const char* pattern;
    double units;
    AlgorithmKind kind;
  };

  static workload::RampParams rampFor(double units) {
    workload::RampParams ramp;
    ramp.min_workload = DataSize::tracks(500.0);
    ramp.ramp_periods = 30;
    ramp.max_workload = DataSize::tracks(units * 500.0);
    return ramp;
  }

  experiments::EpisodeConfig episodeConfig(const Op& op) const {
    experiments::EpisodeConfig ep;
    ep.periods = 72;
    const workload::RampParams ramp = rampFor(op.units);
    ep.manager.d_init = std::string(op.pattern) == "decreasing"
                            ? ramp.max_workload
                            : ramp.min_workload;
    ep.scenario.seed = cfg_.seed;
    return ep;
  }

  WorkloadConfig cfg_;
  task::TaskSpec spec_;
  std::vector<Op> ops_;
  std::vector<std::unique_ptr<workload::Pattern>> patterns_;
  std::optional<core::PredictiveModels> models_;
};

// ---- scale_fabric ---------------------------------------------------------

/// 256 nodes x 32 tasks on an 8-segment star switched fabric under a fast
/// triangular churn: the feasible scale cell.
class ScaleFabric final : public Workload {
 public:
  static constexpr std::size_t kNodes = 256;
  static constexpr std::size_t kTasks = 32;
  static constexpr std::size_t kSeeds = 4;
  static constexpr double kPeakTracks = 6000.0;

  explicit ScaleFabric(const WorkloadConfig& cfg)
      : cfg_(cfg), spec_(apps::makeAawTaskSpec()) {
    workload::RampParams ramp;
    ramp.min_workload = DataSize::tracks(kPeakTracks * 0.5);
    ramp.max_workload = DataSize::tracks(kPeakTracks);
    ramp.ramp_periods = 6;
    pattern_ = std::make_unique<workload::Triangular>(ramp);
    for (std::size_t k = 0; k < kSeeds; ++k) {
      for (const AlgorithmKind kind :
           {AlgorithmKind::kPredictive, AlgorithmKind::kNonPredictive}) {
        ops_.push_back({cfg_.seed * 7919ULL + k, kind});
      }
    }
  }

  std::string name() const override { return "scale_fabric"; }
  std::size_t opCount() const override { return ops_.size(); }

  std::string describe() const override {
    return std::to_string(ops_.size()) + " multi-task episodes: " +
           std::to_string(kNodes) + " nodes x " + std::to_string(kTasks) +
           " tasks, 8-segment star fabric, triangular " +
           std::to_string(static_cast<int>(kPeakTracks / 2)) + "-" +
           std::to_string(static_cast<int>(kPeakTracks)) +
           " tracks over 6 periods, 12 periods, " + std::to_string(kSeeds) +
           " seeds x 2 allocators";
  }

  std::string opLabel(std::size_t i) const override {
    return "seed" + std::to_string(ops_[i].scenario_seed) + "/" +
           kindTag(ops_[i].kind);
  }

  void setup(SpanLog& log) override {
    experiments::FittedModelSet fitted = fitModels(log);
    if (!models_) {
      models_ = std::move(fitted.models);
    }
    ScopedSpan span(log, "apps.Scenario");
    apps::Scenario scenario(config(ops_.front()).episode.scenario);
    (void)scenario;
  }

  OpResult run(std::size_t i) override {
    return guarded([&](OpResult& out) {
      const Op& op = ops_[i];
      const experiments::MultiTaskResult r = experiments::runMultiTaskEpisode(
          spec_, *pattern_, *models_, op.kind, config(op));
      digestMulti(out.outcome, r);
    });
  }

  /// The runMultiTaskEpisode wiring, inlined so the allocator decorators
  /// and the substrates are reachable.
  TracedOp runTraced(std::size_t i, SpanLog& log) override {
    TracedOp t;
    t.result = guarded([&](OpResult& out) {
      const Op& op = ops_[i];
      const experiments::MultiTaskConfig mc = config(op);
      const experiments::EpisodeConfig& ec = mc.episode;
      std::optional<apps::Scenario> scenario;
      {
        ScopedSpan span(log, "apps.Scenario");
        scenario.emplace(ec.scenario);
      }
      core::WorkloadLedger ledger;
      std::vector<task::TaskSpec> specs(mc.task_count, spec_);
      for (std::size_t k = 0; k < mc.task_count; ++k) {
        specs[k].name = spec_.name + "#" + std::to_string(k + 1);
      }
      std::vector<TimedAllocator*> timed;
      std::vector<std::unique_ptr<core::ResourceManager>> managers;
      for (std::size_t k = 0; k < mc.task_count; ++k) {
        std::vector<ProcessorId> homes;
        for (std::size_t s = 0; s < spec_.stageCount(); ++s) {
          homes.push_back(
              ProcessorId{static_cast<std::uint32_t>((s + 2 * k) % kNodes)});
        }
        auto alloc = std::make_unique<TimedAllocator>(
            makeAllocator(op.kind, *models_, ec.nonpredictive_threshold),
            log);
        timed.push_back(alloc.get());
        core::ManagerConfig mgr_cfg = ec.manager;
        mgr_cfg.sample_cluster = (k == 0);
        const std::uint64_t phase = k * mc.phase_shift;
        const workload::Pattern* pattern = pattern_.get();
        managers.push_back(std::make_unique<core::ResourceManager>(
            scenario->runtime(), specs[k], task::Placement(homes),
            [pattern, phase](std::uint64_t c) {
              return pattern->at(c + phase);
            },
            std::move(alloc), *models_, mgr_cfg,
            scenario->streams().get("exec-noise", k)));
        managers.back()->attachLedger(ledger);
      }
      for (auto& m : managers) {
        m->start(scenario->sim().now());
      }
      scenario->runFor(spec_.period * static_cast<double>(ec.periods));
      for (auto& m : managers) {
        m->stop();
      }
      scenario->runFor(spec_.period * ec.drain_periods);

      experiments::MultiTaskResult r;
      for (std::size_t k = 0; k < managers.size(); ++k) {
        experiments::EpisodeResult er = resultOf(*managers[k], kNodes);
        r.missed_pct += er.missed_pct;
        r.cpu_pct += er.cpu_pct;
        r.net_pct += er.net_pct;
        r.avg_replicas += er.avg_replicas;
        r.combined += er.combined;
        readManagerCounters(*managers[k], *timed[k], t.counters);
        r.tasks.push_back(std::move(er));
      }
      const auto n = static_cast<double>(managers.size());
      r.missed_pct /= n;
      r.cpu_pct /= n;
      r.net_pct /= n;
      r.avg_replicas /= n;
      r.combined /= n;
      digestMulti(out.outcome, r);
      readScenarioCounters(*scenario, t.counters);
      addQuality(t, op.kind, r);
    });
    return t;
  }

  std::vector<std::string> checkOutcomes(
      const std::vector<TracedOp>& traced) const override {
    // Feasible regime: the predictive allocator misses under 5% of
    // deadlines on average while both adaptation actions keep firing.
    std::vector<std::string> bad;
    double missed = 0.0;
    double episodes = 0.0;
    double replicate = 0.0;
    double shutdown = 0.0;
    for (const TracedOp& t : traced) {
      for (const QualitySample& q : t.quality) {
        if (q.predictive) {
          missed += q.missed_pct;
          episodes += 1.0;
        }
      }
      const auto get = [&t](const char* key) {
        const auto it = t.counters.find(key);
        return it == t.counters.end() ? 0.0 : it->second;
      };
      replicate += get("core.replicate_actions");
      shutdown += get("core.shutdown_actions");
    }
    if (episodes > 0.0 && missed / episodes >= 5.0) {
      bad.push_back("predictive misses " + std::to_string(missed / episodes) +
                    "% of deadlines (>= 5%)");
    }
    if (replicate <= 0.0 || shutdown <= 0.0) {
      bad.push_back("replicate/shutdown actions did not both fire");
    }
    return bad;
  }

 private:
  struct Op {
    std::uint64_t scenario_seed;
    AlgorithmKind kind;
  };

  experiments::MultiTaskConfig config(const Op& op) const {
    experiments::MultiTaskConfig mc;
    mc.task_count = kTasks;
    mc.phase_shift = 5;
    mc.episode.periods = 12;
    mc.episode.scenario.node_count = kNodes;
    mc.episode.scenario.seed = op.scenario_seed;
    mc.episode.scenario.net_kind = net::NetKind::kSwitched;
    mc.episode.scenario.fabric.segments = 8;
    mc.episode.scenario.fabric.topology = net::FabricTopology::kStar;
    return mc;
  }

  static void digestMulti(Digest& d, const experiments::MultiTaskResult& r) {
    d.add("missed_pct", r.missed_pct)
        .add("combined", r.combined)
        .add("cpu_pct", r.cpu_pct)
        .add("net_pct", r.net_pct)
        .add("avg_replicas", r.avg_replicas);
    for (const experiments::EpisodeResult& task : r.tasks) {
      digestEpisode(d, task);
    }
  }

  WorkloadConfig cfg_;
  task::TaskSpec spec_;
  std::unique_ptr<workload::Pattern> pattern_;
  std::vector<Op> ops_;
  std::optional<core::PredictiveModels> models_;
};

// ---- fuzz_cross -----------------------------------------------------------

/// check::runFuzzSeed over a fixed window of fuzz seeds with every
/// scenario dimension on. The window is fixed so that its cost is
/// comparable run to run (per-seed cost varies about 20x); the workload
/// seed rotates the order the window is visited in.
class FuzzCross final : public Workload {
 public:
  static constexpr std::uint64_t kFirst = 200;
  static constexpr std::uint64_t kCount = 40;

  explicit FuzzCross(const WorkloadConfig& cfg) {
    const std::uint64_t rot = cfg.seed % kCount;
    for (std::uint64_t j = 0; j < kCount; ++j) {
      seeds_.push_back(kFirst + (j + rot) % kCount);
    }
  }

  std::string name() const override { return "fuzz_cross"; }
  std::size_t opCount() const override { return seeds_.size(); }

  std::string describe() const override {
    return "runFuzzSeed over fuzz seeds " + std::to_string(kFirst) + ".." +
           std::to_string(kFirst + kCount - 1) +
           " (all six dimensions), visited from seed " +
           std::to_string(seeds_.front());
  }

  std::string opLabel(std::size_t i) const override {
    return "fuzz-seed" + std::to_string(seeds_[i]);
  }

  void setup(SpanLog& log) override {
    fitModels(log);
    ScopedSpan span(log, "apps.Scenario");
    for (const std::uint64_t s : seeds_) {
      const check::FuzzScenario sc = scenarioFor(s);
      (void)sc;
    }
  }

  OpResult run(std::size_t i) override {
    return guarded([&](OpResult& out) {
      const check::FuzzOutcome o = check::runFuzzSeed(
          seeds_[i], {}, true, {}, true, true, true, true, true);
      digestVerdict(out, o.invariants_ok, o.deterministic, o.violations,
                    o.checks, o.detail);
    });
  }

  /// runFuzzSeed's body with the spans and an obs bundle on the first run
  /// of each allocator; the replay stays untraced.
  TracedOp runTraced(std::size_t i, SpanLog& log) override {
    TracedOp t;
    t.result = guarded([&](OpResult& out) {
      std::optional<check::FuzzScenario> sc;
      {
        ScopedSpan span(log, "check.makeFuzzScenario");
        sc.emplace(scenarioFor(seeds_[i]));
      }
      bool invariants_ok = true;
      bool deterministic = true;
      std::uint64_t violations = 0;
      std::uint64_t checks = 0;
      std::string detail;
      std::string obs_mismatch;
      for (const check::AllocatorKind kind :
           {check::AllocatorKind::kPredictive,
            check::AllocatorKind::kNonPredictive}) {
        obs::Observability obs;
        check::FuzzCaseResult first;
        {
          ScopedSpan span(log, "check.runFuzzCase");
          first = check::runFuzzCase(*sc, kind, &obs);
        }
        check::FuzzCaseResult replay;
        {
          ScopedSpan span(log, "check.runFuzzCase");
          replay = check::runFuzzCase(*sc, kind);
        }
        checks += first.checks;
        if (first.violations > 0) {
          invariants_ok = false;
          violations += first.violations;
          if (detail.empty()) {
            detail = std::string(check::allocatorKindName(kind)) + ": " +
                     first.report;
          }
        }
        if (replay.digest != first.digest) {
          deterministic = false;
          if (detail.empty()) {
            detail = std::string(check::allocatorKindName(kind)) +
                     ": replay digest diverged (" +
                     std::to_string(first.digest.size()) + " vs " +
                     std::to_string(replay.digest.size()) + " bytes)";
          }
        }
        if (obs_mismatch.empty()) {
          obs_mismatch = first.obs_mismatch;
        }
        readRegistry(obs.metrics, *sc, kind, t);
      }
      t.counters["check.oracle_checks"] += static_cast<double>(checks);
      t.counters["check.violations"] += static_cast<double>(violations);
      digestVerdict(out, invariants_ok, deterministic, violations, checks,
                    detail);
      if (out.fail_kind.empty() && !obs_mismatch.empty()) {
        out.fail_kind = "obs-reconcile";
        out.fail_detail = obs_mismatch;
      }
    });
    t.counters["check.case_ms"] += log.totalMs("check.runFuzzCase") / 4.0;
    return t;
  }

 private:
  static check::FuzzScenario scenarioFor(std::uint64_t seed) {
    return check::makeFuzzScenario(seed, {}, true, true, true, true, true,
                                   true);
  }

  static void digestVerdict(OpResult& out, bool invariants_ok,
                            bool deterministic, std::uint64_t violations,
                            std::uint64_t checks, const std::string& detail) {
    out.outcome.add("invariants_ok", std::uint64_t{invariants_ok})
        .add("deterministic", std::uint64_t{deterministic})
        .add("violations", violations)
        .add("checks", checks);
    if (!deterministic) {
      out.fail_kind = "replay-digest";
      out.fail_detail = detail;
    } else if (!invariants_ok) {
      out.fail_kind = "oracle-violation";
      out.fail_detail = detail.substr(0, detail.find('\n'));
    }
  }

  static void readRegistry(const obs::MetricsRegistry& reg,
                           const check::FuzzScenario& sc,
                           check::AllocatorKind kind, TracedOp& t) {
    const auto counter = [&reg](const char* name) {
      const obs::Counter* c = reg.findCounter(name);
      return c != nullptr ? static_cast<double>(c->value()) : 0.0;
    };
    const auto gauge = [&reg](const char* name) {
      const obs::Gauge* g = reg.findGauge(name);
      return g != nullptr ? g->value() : 0.0;
    };
    Counters& c = t.counters;
    for (const char* key :
         {"sim.events_executed", "sim.events_scheduled",
          "sim.events_cancelled", "node.index_rebuilds",
          "node.cursor_advances", "node.samples_taken", "net.frames_on_wire",
          "net.messages_delivered", "net.payload_bytes", "net.frames_dropped",
          "core.replicate_actions", "core.shutdown_actions",
          "core.allocation_failures", "core.period_dilations",
          "plane.gossip_messages_sent", "plane.elections",
          "fault.heartbeats_sent", "fault.retries_sent",
          "fault.declared_dead"}) {
      c[key] += counter(key);
    }
    c["net.frames_originated"] += counter("net.frames_on_wire");
    c["sim.peak_heap_depth"] += gauge("sim.peak_heap_depth");
    c["sim.sim_s"] += gauge("sim.now_ms") * 1e-3;
    c["plane.max_staleness_ms"] += gauge("plane.max_staleness_observed_ms");
    c["plane.decision_gap_ms"] += gauge("plane.decision_gap_ms");

    const double periods = counter("core.periods_observed");
    const double missed = periods > 0.0
                              ? counter("core.missed_deadlines") / periods
                              : 0.0;
    const double cpu = gauge("core.mean_cpu_utilization");
    const double netu = gauge("core.mean_net_utilization");
    const double replicas = gauge("core.mean_replicas_per_subtask");
    c["core.avg_replicas"] += replicas;
    c["core.cpu_pct"] += cpu * 100.0;
    c["core.net_pct"] += netu * 100.0;
    t.quality.push_back(
        {kind == check::AllocatorKind::kPredictive, missed * 100.0,
         missed + cpu + netu +
             replicas / static_cast<double>(sc.node_count)});
  }

  std::vector<std::uint64_t> seeds_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"paper_sweep",
                                                 "scale_fabric", "fuzz_cross"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "paper_sweep") {
    return std::make_unique<PaperSweep>(config);
  }
  if (name == "scale_fabric") {
    return std::make_unique<ScaleFabric>(config);
  }
  if (name == "fuzz_cross") {
    return std::make_unique<FuzzCross>(config);
  }
  return nullptr;
}

}  // namespace perfbench
