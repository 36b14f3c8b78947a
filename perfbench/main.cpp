// rtdrm benchmark binary: one workload per process.
//
//   perfbench_rtdrm --workload <paper_sweep|scale_fabric|fuzz_cross>
//                   [--seed N] [--seconds S] [--trace 0|1]
//                   [--out-dir DIR] [--expect FILE] [--git-sha SHA]
//
// Every pass fans the op list out over the worker pool (at most nproc
// threads). Phases:
//   1. one untimed set-up, which gives the ops their models.
//   2. warm-up pass, untimed: records each op's simulated outcome.
//   3. set-up, repeated kSetupReps times (model fitting + scenario
//      construction); setup_s is the median.
//   4. timed phase, untraced: whole passes until the next pass would
//      overrun --seconds (at least one). Every op must repeat its warm-up
//      outcome bit for bit. ops_per_s is the op count over the median
//      pass wall time.
//   5. traced pass, untimed: every op once more through the layers' public
//      accessors with spans and counters; each traced outcome must equal
//      its untraced twin.
// The last stdout line is the result object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. The full record (context,
// both metric sets, tail percentile, failures, spans) goes to --out-dir.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

constexpr int kSetupReps = 9;
/// Calibration kernel time per worker, with every worker running it, at
/// the reference host speed: a typical reading on the 4-vCPU 2.1 GHz host
/// the benchmark was tuned on. Host times are reported at this speed.
constexpr double kReferenceCalibrationMs = 12.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string expect = "perfbench/expected.json";
  std::string git_sha = "unknown";
};

bool parseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << a << "\n";
      return false;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--expect") {
      o.expect = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else {
      std::cerr << "unknown argument " << a << "\n";
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

/// Peak resident set of this process, in MiB (VmHWM).
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Expected workload digest for (workload, seed) from the committed file
/// (a flat JSON object "workload/seed": "hash"); empty when none.
std::string expectedDigest(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) {
    return {};
  }
  const std::size_t q1 = text.find('"', text.find(':', at) + 1);
  const std::size_t q2 = text.find('"', q1 + 1);
  return q1 == std::string::npos || q2 == std::string::npos
             ? std::string{}
             : text.substr(q1 + 1, q2 - q1 - 1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " +
           jsonNumber(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::cerr << "usage: perfbench_rtdrm --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n";
    return 2;
  }
  const unsigned cpu_count = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = cpu_count;
  rtdrm::parallel::setThreads(threads);

  WorkloadConfig wc;
  wc.seed = opt.seed;
  std::unique_ptr<Workload> w = makeWorkload(opt.workload, wc);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const std::size_t n = w->opCount();
  std::cout << "workload " << w->name() << " seed " << opt.seed << ": "
            << w->describe() << "\n";

  // The shared host's speed drifts by tens of percent within a minute.
  // Right before each timed interval every worker runs the calibration
  // kernel at once; the interval's host times are then scaled by
  // kReferenceCalibrationMs / (median kernel time), i.e. reported at the
  // reference host speed. Returns that factor.
  std::vector<double> calibration_ms;
  const auto calibrate = [&] {
    std::vector<double> per_worker(threads);
    rtdrm::parallelFor(
        threads,
        [&](std::size_t k) { per_worker[k] = calibrationKernelMs(); },
        threads);
    calibration_ms.push_back(median(per_worker));
    return kReferenceCalibrationMs / calibration_ms.back();
  };

  // ---- 1. untimed set-up -------------------------------------------------
  // Gives the ops their models and scenarios; the measured set-ups run
  // after the warm-up pass, on a warmed host.
  {
    SpanLog first;
    w->setup(first);
  }

  // ---- 2. warm-up pass ---------------------------------------------------
  FailureLedger ledger;
  bool consistent = true;  // no replay/twin/exception failures
  const auto record = [&](const OpResult& r, std::size_t i) {
    ledger.attempt();
    if (!r.fail_kind.empty()) {
      ledger.fail(r.fail_kind, w->opLabel(i) + ": " + r.fail_detail);
      consistent = consistent && r.fail_kind == "oracle-violation";
    }
  };
  // One pass over every op on the worker pool, claimed in `order`;
  // returns its wall seconds.
  std::vector<OpResult> results(n);
  std::vector<double> ms(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  const auto pass = [&] {
    const std::int64_t p0 = nowNs();
    rtdrm::parallelFor(
        n,
        [&](std::size_t k) {
          const std::size_t i = order[k];
          const std::int64_t a = nowNs();
          results[i] = w->run(i);
          ms[i] = static_cast<double>(nowNs() - a) * 1e-6;
        },
        threads);
    return static_cast<double>(nowNs() - p0) * 1e-9;
  };

  // The untimed warm-up pass fills caches and records each op's reference
  // outcome; every later run of the op must reproduce it bit for bit.
  pass();
  std::vector<Digest> reference(n);
  for (std::size_t i = 0; i < n; ++i) {
    reference[i] = results[i].outcome;
    record(results[i], i);
  }

  // ---- 3. measured set-ups -----------------------------------------------
  std::vector<SpanLog> span_logs;
  std::vector<double> setup_s;
  std::vector<double> fit_ms;
  std::vector<double> build_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    const double scale = calibrate();
    SpanLog log;
    const int root = log.open("setup");
    w->setup(log);
    log.close(root);
    setup_s.push_back(log.spans()[0].ms() * 1e-3 * scale);
    fit_ms.push_back(log.totalMs("profile.fitAllModels") * scale);
    build_ms.push_back(log.totalMs("apps.Scenario") * scale);
    span_logs.push_back(std::move(log));
  }

  // ---- 4. timed passes ---------------------------------------------------
  // Timed passes claim the longest ops first (by warm-up time), so a
  // pass's makespan measures the work rather than where in the op list
  // the heaviest op happens to sit.
  std::stable_sort(order.begin(), order.end(),
                   [&ms](std::size_t a, std::size_t b) {
                     return ms[a] > ms[b];
                   });

  std::vector<double> op_ms;
  std::vector<std::vector<double>> per_op_ms(n);
  std::vector<double> pass_walls;
  double busy_ms = 0.0;
  double pass_wall_raw_s = 0.0;
  std::vector<double> pass_op_ms;  // summed scaled op time of each pass
  double timed_wall_s = 0.0;
  const std::int64_t t_begin = nowNs();
  while (true) {
    const double scale = calibrate();
    const double pass_s = pass();
    double op_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      OpResult& r = results[i];
      if (r.fail_kind.empty()) {
        const std::string diff = twinMismatch(r.outcome, reference[i]);
        if (!diff.empty()) {
          r.fail_kind = "replay-mismatch";
          r.fail_detail = diff;
        }
      }
      record(r, i);
      op_ms.push_back(ms[i] * scale);
      per_op_ms[i].push_back(ms[i] * scale);
      op_sum += ms[i] * scale;
      busy_ms += ms[i];
    }
    pass_walls.push_back(pass_s * scale);
    pass_op_ms.push_back(op_sum);
    pass_wall_raw_s += pass_s;
    timed_wall_s = static_cast<double>(nowNs() - t_begin) * 1e-9;
    if (timed_wall_s + pass_s > opt.seconds) {
      break;
    }
  }
  const double rss_mb = peakRssMb();

  // ---- 5. traced pass -----------------------------------------------------
  std::vector<TracedOp> traced(n);
  std::vector<SpanLog> op_logs;
  for (std::size_t i = 0; i < n; ++i) {
    op_logs.emplace_back(static_cast<std::int64_t>(i));
  }
  std::vector<double> traced_ms(n);
  const double traced_scale = calibrate();
  rtdrm::parallelFor(
      n,
      [&](std::size_t i) {
        const int root = op_logs[i].open("op");
        traced[i] = w->runTraced(i, op_logs[i]);
        op_logs[i].close(root);
        traced_ms[i] = op_logs[i].spans()[0].ms() * traced_scale;
      },
      threads);
  Counters sums;
  std::size_t quality_n = 0;
  std::map<bool, std::vector<double>> missed;
  std::map<bool, std::vector<double>> combined;
  std::uint64_t workload_hash = 0xcbf29ce484222325ULL;
  double run_self_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    TracedOp& t = traced[i];
    if (t.result.fail_kind.empty()) {
      const std::string diff = twinMismatch(t.result.outcome, reference[i]);
      if (!diff.empty()) {
        t.result.fail_kind = "twin-mismatch";
        t.result.fail_detail = diff;
      }
    }
    record(t.result, i);
    workload_hash = fnv1a(t.result.outcome.str(), workload_hash);
    for (const auto& [k, v] : t.counters) {
      sums[k] += v;
    }
    for (const QualitySample& q : t.quality) {
      missed[q.predictive].push_back(q.missed_pct);
      combined[q.predictive].push_back(q.combined);
      ++quality_n;
    }
    run_self_ms += op_logs[i].selfMs(0) * traced_scale;
  }
  for (SpanLog& log : op_logs) {
    span_logs.push_back(std::move(log));
  }
  const std::string digest = hex64(workload_hash);

  // ---- checks -------------------------------------------------------------
  std::vector<std::string> check_failures = w->checkOutcomes(traced);
  const std::string key = w->name() + "/" + std::to_string(opt.seed);
  const std::string expected = expectedDigest(opt.expect, key);
  if (!expected.empty() && expected != digest) {
    check_failures.push_back("outcome digest " + digest + " != expected " +
                             expected + " (" + opt.expect + ")");
  }
  const bool correct = consistent && check_failures.empty();

  // ---- metrics ------------------------------------------------------------
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) {
      s += x;
    }
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const auto sum = [&sums](const std::string& k) {
    const auto it = sums.find(k);
    return it == sums.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const TailStat tail = tailPercentile(op_ms);
  const double nd = static_cast<double>(n);
  const double qn = static_cast<double>(std::max<std::size_t>(quality_n, 1));

  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", nd / median(pass_walls), "1/s"},
      {"op_ms.p50", median(op_ms), "ms"},
      {"op_ms.tail", tail.value, "ms"},
      {"peak_rss_mb", rss_mb, "MiB"},
      {"combined_c.predictive", mean(combined[true]), "1"},
      {"combined_c.nonpredictive", mean(combined[false]), "1"},
  };

  const std::vector<Metric> layers = {
      {"host.calibration_ms", median(calibration_ms), "ms"},
      {"profile.fit_ms", median(fit_ms), "ms"},
      {"apps.scenario_build_ms", median(build_ms), "ms"},
      {"common.parallel.busy_frac",
       busy_ms * 1e-3 / (pass_wall_raw_s * threads), "ratio"},
      {"sim.events_executed", sum("sim.events_executed") / nd, "count"},
      {"sim.events_scheduled", sum("sim.events_scheduled") / nd, "count"},
      {"sim.events_cancelled", sum("sim.events_cancelled") / nd, "count"},
      {"sim.cancel_ratio",
       ratio(sum("sim.events_cancelled"), sum("sim.events_scheduled")),
       "ratio"},
      {"sim.peak_heap_depth", sum("sim.peak_heap_depth") / nd, "count"},
      {"sim.events_per_sim_s",
       ratio(sum("sim.events_executed"), sum("sim.sim_s")), "1/s"},
      {"sim.host_ns_per_event",
       ratio(mean(traced_ms) * nd * 1e6, sum("sim.events_executed")), "ns"},
      {"sim.run_self_ms", run_self_ms / nd, "ms/op"},
      {"node.jobs_completed", sum("node.jobs_completed") / nd, "count"},
      {"node.jobs_aborted", sum("node.jobs_aborted") / nd, "count"},
      {"node.jobs_rejected", sum("node.jobs_rejected") / nd, "count"},
      {"node.bg_jobs_injected", sum("node.bg_jobs_injected") / nd, "count"},
      {"node.busy_ms", sum("node.busy_ms") / nd, "sim_ms/op"},
      {"node.sched_overhead_ms", sum("node.sched_overhead_ms") / nd,
       "sim_ms/op"},
      {"node.index_rebuilds", sum("node.index_rebuilds") / nd, "count"},
      {"node.cursor_advances", sum("node.cursor_advances") / nd, "count"},
      {"node.samples_taken", sum("node.samples_taken") / nd, "count"},
      {"net.frames_on_wire", sum("net.frames_on_wire") / nd, "count"},
      {"net.messages_delivered", sum("net.messages_delivered") / nd, "count"},
      {"net.payload_bytes", sum("net.payload_bytes") / nd, "B"},
      {"net.busy_ms", sum("net.busy_ms") / nd, "sim_ms/op"},
      {"net.frames_dropped", sum("net.frames_dropped") / nd, "count"},
      {"net.drop_ratio",
       ratio(sum("net.frames_dropped"), sum("net.frames_originated")),
       "ratio"},
      {"task.periods_released", sum("task.periods_released") / nd, "count"},
      {"core.replicate_calls", sum("core.replicate_calls") / nd, "count"},
      {"core.replicate_ms", sum("core.replicate_ms") / nd * traced_scale,
       "ms/op"},
      {"core.replicate_ok_ratio",
       ratio(sum("core.replicate_ok"), sum("core.replicate_calls")), "ratio"},
      {"core.replicate_actions", sum("core.replicate_actions") / nd, "count"},
      {"core.shutdown_actions", sum("core.shutdown_actions") / nd, "count"},
      {"core.allocation_failures", sum("core.allocation_failures") / nd,
       "count"},
      {"core.period_dilations", sum("core.period_dilations") / nd, "count"},
      {"core.missed_pct.predictive", mean(missed[true]), "%"},
      {"core.missed_pct.nonpredictive", mean(missed[false]), "%"},
      {"core.avg_replicas", sum("core.avg_replicas") / qn, "count"},
      {"core.cpu_pct", sum("core.cpu_pct") / qn, "%"},
      {"core.net_pct", sum("core.net_pct") / qn, "%"},
      {"plane.gossip_messages_sent", sum("plane.gossip_messages_sent") / nd,
       "count"},
      {"plane.elections", sum("plane.elections") / nd, "count"},
      {"plane.max_staleness_ms", sum("plane.max_staleness_ms") / nd,
       "sim_ms/op"},
      {"plane.decision_gap_ms", sum("plane.decision_gap_ms") / nd, "sim_ms/op"},
      {"fault.heartbeats_sent", sum("fault.heartbeats_sent") / nd, "count"},
      {"fault.retries_sent", sum("fault.retries_sent") / nd, "count"},
      {"fault.declared_dead", sum("fault.declared_dead") / nd, "count"},
      {"check.oracle_checks", sum("check.oracle_checks") / nd, "count"},
      {"check.case_ms", sum("check.case_ms") / nd * traced_scale, "ms/case"},
      {"check.violations", sum("check.violations") / nd, "count"},
      {"obs.tracing_overhead_pct",
       100.0 * (mean(traced_ms) * nd / median(pass_op_ms) - 1.0), "%"},
      {"failed_pct", ledger.failedPct(), "%"},
  };

  for (const std::vector<Metric>* set : {&e2e, &layers}) {
    for (const Metric& m : *set) {
      if (!validMetricName(m.name) || !validUnit(m.unit)) {
        std::cerr << "invalid metric name or unit: " << m.name << " ["
                  << m.unit << "]\n";
        return 1;
      }
    }
  }

  // ---- report -------------------------------------------------------------
  std::cout << "context: git_sha=" << opt.git_sha << " cpu_count=" << cpu_count
            << " threads=" << threads << " build=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER
            << "\" sim_validated_against_hardware=false\n";
  std::cout << "timed: " << pass_walls.size() << " pass(es), " << op_ms.size()
            << " ops in " << timed_wall_s << " s; tail = p" << tail.percentile
            << " of " << tail.samples << " samples (" << tail.beyond
            << " beyond)" << (tail.qualified ? "" : " [fewer than 11 samples]")
            << "\n";
  std::cout << "ops: " << ledger.attempted() << " attempted, "
            << ledger.failed()
            << " failed (warm-up, timed and traced passes)\n";
  for (const auto& [kind, info] : ledger.kinds()) {
    std::cout << "  failed[" << kind << "] x" << info.first << ": "
              << info.second.substr(0, 300) << "\n";
  }
  for (const std::string& f : check_failures) {
    std::cout << "  CHECK FAILED: " << f << "\n";
  }
  std::cout << "outcome digest " << key << " = " << digest
            << (expected.empty()        ? " (no committed digest)"
                : expected == digest ? " (matches committed)"
                                     : " (DIFFERS from committed)")
            << "\n";
  for (const Metric& m : e2e) {
    std::cout << "e2e   " << m.name << " = " << jsonNumber(m.value) << " "
              << m.unit << "\n";
  }
  for (const Metric& m : layers) {
    std::cout << "layer " << m.name << " = " << jsonNumber(m.value) << " "
              << m.unit << "\n";
  }

  const std::string stem =
      opt.out_dir + "/" + w->name() + "-seed" + std::to_string(opt.seed);
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\": \"" << w->name() << "\", \"seed\": " << opt.seed
        << ",\n \"context\": {\"git_sha\": \"" << jsonEscape(opt.git_sha)
        << "\", \"cpu_count\": " << cpu_count
        << ", \"threads\": " << threads << ", \"build_type\": \""
        << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
        << jsonEscape(PERFBENCH_COMPILER)
        << "\", \"sim_validated_against_hardware\": false, \"note\": "
           "\"simulated testbed; the paper's hardware numbers are not in "
           "the repository\"},\n \"ops\": "
        << n << ", \"timed_passes\": " << pass_walls.size()
        << ", \"pass_s\": [";
    for (std::size_t p = 0; p < pass_walls.size(); ++p) {
      out << (p == 0 ? "" : ", ") << jsonNumber(pass_walls[p]);
    }
    out << "], \"attempted\": " << ledger.attempted()
        << ", \"failed\": " << ledger.failed()
        << ", \"correct\": " << (correct ? "true" : "false")
        << ",\n \"tail\": {\"percentile\": " << jsonNumber(tail.percentile)
        << ", \"samples\": " << tail.samples << ", \"beyond\": " << tail.beyond
        << "},\n \"outcome_digest\": \"" << digest
        << "\",\n \"op_median_ms\": {";
    for (std::size_t i = 0; i < n; ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << jsonEscape(w->opLabel(i))
          << "\": " << jsonNumber(median(per_op_ms[i]));
    }
    out << "},\n \"end_to_end\": " << metricsJson(e2e)
        << ",\n \"per_layer\": " << metricsJson(layers) << "}\n";
  }
  writeSpansJson(stem + "-spans.json", span_logs);

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": " << metricsJson(opt.trace ? layers : e2e)
            << "}" << std::endl;
  return 0;
}
