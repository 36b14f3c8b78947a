// The benchmark's three workloads behind one interface.
//
// A workload is a fixed, seed-derived list of ops. An op is one episode
// (experiments::runEpisode / runMultiTaskEpisode) or one fuzz seed
// (check::runFuzzSeed). Each op can run two ways:
//   * `run()`: the plain public call, as a user makes it. The timed passes
//     measure it; it is the untraced twin.
//   * `runTraced()`: the same op wired through the layers' public
//     accessors, with spans around every call into a layer and the layers'
//     counters read at the end. Its simulated outcome must equal the
//     plain call's bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Per-layer counters of one traced op, keyed by per-layer metric name
/// (raw sums; ratios are formed over the whole pass).
using Counters = std::map<std::string, double>;

struct OpResult {
  Digest outcome;
  /// Empty when the op succeeded; else a failure kind ("oracle-violation",
  /// "replay-digest", "exception", ...) and its detail.
  std::string fail_kind;
  std::string fail_detail;
};

/// The paper's quality metrics of one allocator run inside an op.
struct QualitySample {
  bool predictive = true;
  double missed_pct = 0.0;
  double combined = 0.0;
};

struct TracedOp {
  OpResult result;
  Counters counters;
  std::vector<QualitySample> quality;
};

struct WorkloadConfig {
  std::uint64_t seed = 42;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// One set-up: model fitting plus scenario construction. Spans go to
  /// `log`. The first call's fitted models are the ones the ops use.
  virtual void setup(SpanLog& log) = 0;
  virtual std::size_t opCount() const = 0;
  virtual std::string opLabel(std::size_t i) const = 0;
  virtual OpResult run(std::size_t i) = 0;
  virtual TracedOp runTraced(std::size_t i, SpanLog& log) = 0;
  /// Workload-specific checks of the traced pass's outcomes (regime,
  /// reproduction shape). Returns one line per failed check.
  virtual std::vector<std::string> checkOutcomes(
      const std::vector<TracedOp>& traced) const {
    (void)traced;
    return {};
  }
  /// Human-readable description of the op list.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadConfig& config);
const std::vector<std::string>& workloadNames();

}  // namespace perfbench
