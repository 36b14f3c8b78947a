// A homogeneous cluster of processors (Table 1: 6 nodes).
//
// Owns the processors, their per-node background-load generators, and the
// utilization probes the resource manager samples each period. The network
// is deliberately *not* here — it is a separate substrate (src/net) wired
// alongside by the scenario builder.
//
// Management-plane index (docs/architecture.md, "Management-plane
// indices"): the selection queries the allocators hammer — leastUtilized()
// once per replica addition, belowUtilization() once per Fig.-7 action —
// are served from a utilization min-index instead of full-cluster scans.
// The index is a 4-ary min-heap of {utilization, id} entries keyed
// lexicographically so "lowest ProcessorId wins" ties are preserved, and
// is generation-tagged: sampleUtilization() only bumps a generation, and
// the first query after a sample rebuilds the heap in one O(P) pass.
// Queries between samples are read-only on the heap (a best-first descent
// over subtree roots), so any number of exclusion sets can be answered
// from one build.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "node/background_load.hpp"
#include "node/processor.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::node {

class Cluster {
 public:
  /// `speeds` (extension): per-node relative speeds; empty = homogeneous
  /// at cpu_config.speed (the paper's model). Size must equal node_count
  /// when non-empty.
  Cluster(sim::Simulator& simulator, std::size_t node_count,
          ProcessorConfig cpu_config = {},
          const std::vector<double>& speeds = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t size() const { return cpus_.size(); }
  Processor& processor(ProcessorId id);
  const Processor& processor(ProcessorId id) const;

  /// All processor ids, in index order. The node count is immutable, so
  /// the vector is built once at construction and shared by reference.
  const std::vector<ProcessorId>& ids() const { return ids_; }

  /// Creates one background-load generator per node, each with its own RNG
  /// stream. Must be called at most once.
  void attachBackgroundLoad(const RngStreams& streams,
                            BackgroundLoadConfig config = {});
  bool hasBackgroundLoad() const { return !bg_.empty(); }
  BackgroundLoad& backgroundLoad(ProcessorId id);

  /// Crash or restart a node. Forwards to Processor::setUp (a crash aborts
  /// every resident job) and masks/unmasks the node in the utilization
  /// index: down nodes are invisible to leastUtilized(),
  /// belowUtilization() and cursors — in both indexed and reference-scan
  /// modes — so no allocator can place work on them. Invalidates the index
  /// and any outstanding cursors.
  void setNodeUp(ProcessorId id, bool up);
  bool isUp(ProcessorId id) const { return processor(id).isUp(); }
  /// Number of nodes currently up.
  std::size_t upCount() const;


  /// Samples every node's utilization over the window since the previous
  /// sample; the result is retained and served by lastUtilization().
  /// Invalidates the utilization index (rebuilt lazily on the next query).
  const std::vector<Utilization>& sampleUtilization();

  /// Partition-private sampling for the decentralized management plane:
  /// samples nodes [lo, hi) over each node's window since *its* previous
  /// partition sample and writes the fractions into `out` (resized to
  /// hi - lo) WITHOUT publishing into lastUtilization() or touching the
  /// utilization index — published views only change when a gossiped
  /// summary is applied (applyGossipSample), so a standby's samples never
  /// leak into the active manager's decisions except over the wire.
  /// Partitions must be disjoint across callers (each consumes its nodes'
  /// probe state). Do not mix with sampleUtilization() in one run.
  void samplePartitionInto(std::size_t lo, std::size_t hi,
                           std::vector<Utilization>& out);

  /// Publishes one gossiped utilization into the cluster view served by
  /// lastUtilization()/leastUtilized()/belowUtilization(), invalidating
  /// the index (rebuilt lazily on the next query).
  void applyGossipSample(ProcessorId id, Utilization u);
  /// Most recent sampled utilization of `id` (zero before first sample).
  Utilization lastUtilization(ProcessorId id) const;
  /// Mean of the most recent sample across nodes.
  Utilization meanUtilization() const;

  /// The least-utilized node (by last sample) not contained in `exclude`.
  /// Ties break toward the lower node id, matching the deterministic
  /// "pmin" selection in the paper's Fig. 5 step 3. Served by the
  /// utilization min-index: O(|exclude| log |exclude|) per call after an
  /// amortized O(P) rebuild per sample, vs the reference scan's
  /// O(P·|exclude|).
  std::optional<ProcessorId> leastUtilized(
      const std::vector<ProcessorId>& exclude) const;

  /// Every node whose last-sampled utilization is strictly below `limit`,
  /// in ascending id order (the Fig.-7 candidate set). Returns scratch
  /// storage reused by the next call; copy if you need to keep it.
  const std::vector<ProcessorId>& belowUtilization(Utilization limit) const;

  /// Lazy ascending-(utilization, id) traversal: next() yields the least
  /// utilized node not in the construction-time exclusion set and not yet
  /// yielded — exactly the sequence repeated leastUtilized() calls with a
  /// growing exclusion set would select, but amortized O(log P) per yield
  /// (each heap node enters the traversal frontier at most once over the
  /// cursor's life) instead of O(|exclude| log |exclude|) per one-shot
  /// query. The Fig.-5 growth loop walks one cursor per replicate() call.
  /// Reads the index built at construction: a cursor must not outlive the
  /// next sampleUtilization() (asserted in debug builds).
  class UtilizationCursor {
   public:
    std::optional<ProcessorId> next();

   private:
    friend class Cluster;
    UtilizationCursor(const Cluster& cluster,
                      const std::vector<ProcessorId>& exclude);

    const Cluster* cluster_;
    bool use_index_;
    std::uint64_t generation_ = 0;             ///< staleness guard
    std::vector<std::uint64_t> exclude_bits_;  ///< cursor-owned (not scratch)
    std::vector<std::uint32_t> frontier_;
    std::vector<ProcessorId> scan_exclude_;    ///< scan-fallback state
  };
  UtilizationCursor utilizationCursor(
      const std::vector<ProcessorId>& exclude) const {
    return UtilizationCursor(*this, exclude);
  }

  /// Benchmark/test escape hatch: route leastUtilized() and
  /// belowUtilization() through the seed's linear scans instead of the
  /// index. Both paths are decision-identical; bench_scale uses this to
  /// measure indexed-vs-scan on one build, and tests use it as the
  /// reference oracle.
  void setUtilizationIndexEnabled(bool enabled) { index_enabled_ = enabled; }
  bool utilizationIndexEnabled() const { return index_enabled_; }

  sim::Simulator& simulator() { return sim_; }

  /// Lazy index rebuilds performed so far (one per first-query-after-sample).
  std::uint64_t indexRebuilds() const { return index_rebuilds_; }
  /// Total UtilizationCursor::next() yields served across all cursors.
  std::uint64_t cursorAdvances() const { return cursor_advances_; }
  /// Utilization sweeps taken (sampleUtilization() calls).
  std::uint64_t samplesTaken() const { return samples_taken_; }

  /// Publishes cluster counters into `reg` under "node." names.
  void exportMetrics(obs::MetricsRegistry& reg) const;

 private:
  /// One index entry; key is (utilization, id) lexicographic so equal
  /// utilizations keep the lowest-id-wins contract.
  struct UtilEntry {
    double u = 0.0;
    std::uint32_t id = 0;
  };
  static bool keyLess(const UtilEntry& a, const UtilEntry& b) {
    if (a.u != b.u) {
      return a.u < b.u;
    }
    return a.id < b.id;
  }

  /// Rebuilds the 4-ary heap from last_sample_ and stamps it with the
  /// current sample generation.
  void rebuildIndex() const;
  /// The seed's O(P·|exclude|) reference implementation.
  std::optional<ProcessorId> leastUtilizedScan(
      const std::vector<ProcessorId>& exclude) const;

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Processor>> cpus_;
  std::vector<std::unique_ptr<BackgroundLoad>> bg_;
  std::vector<UtilizationProbe> probes_;
  std::vector<Utilization> last_sample_;
  std::vector<ProcessorId> ids_;

  // --- utilization min-index (mutable: rebuilt lazily from const queries;
  // the cluster is single-threaded by design, like the simulator it runs
  // on).
  bool index_enabled_ = true;
  std::uint64_t sample_generation_ = 1;          ///< bumped per sample
  mutable std::uint64_t index_generation_ = 0;   ///< generation heap holds
  mutable std::vector<UtilEntry> util_heap_;     ///< 4-ary min-heap
  mutable std::vector<std::uint64_t> exclude_bits_;  ///< per-call bitset
  mutable std::vector<std::uint32_t> frontier_;      ///< descent scratch
  mutable std::vector<ProcessorId> below_scratch_;   ///< belowUtilization out

  // --- observability counters (mutable: bumped from const query paths).
  mutable std::uint64_t index_rebuilds_ = 0;
  mutable std::uint64_t cursor_advances_ = 0;
  std::uint64_t samples_taken_ = 0;
};

}  // namespace rtdrm::node
