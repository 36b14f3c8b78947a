#include "node/cluster.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::node {

Cluster::Cluster(sim::Simulator& simulator, std::size_t node_count,
                 ProcessorConfig cpu_config,
                 const std::vector<double>& speeds)
    : sim_(simulator) {
  RTDRM_ASSERT(node_count > 0);
  RTDRM_ASSERT_MSG(speeds.empty() || speeds.size() == node_count,
                   "speeds must be empty or one per node");
  cpus_.reserve(node_count);
  probes_.reserve(node_count);
  ids_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    ProcessorConfig cfg = cpu_config;
    if (!speeds.empty()) {
      cfg.speed = speeds[i];
    }
    cpus_.push_back(std::make_unique<Processor>(
        sim_, ProcessorId{static_cast<std::uint32_t>(i)}, cfg));
    probes_.emplace_back(sim_, *cpus_.back());
    ids_.push_back(ProcessorId{static_cast<std::uint32_t>(i)});
  }
  last_sample_.assign(node_count, Utilization::zero());
  exclude_bits_.assign((node_count + 63) / 64, 0);
}

Processor& Cluster::processor(ProcessorId id) {
  RTDRM_ASSERT(id.value < cpus_.size());
  return *cpus_[id.value];
}

const Processor& Cluster::processor(ProcessorId id) const {
  RTDRM_ASSERT(id.value < cpus_.size());
  return *cpus_[id.value];
}

void Cluster::attachBackgroundLoad(const RngStreams& streams,
                                   BackgroundLoadConfig config) {
  RTDRM_ASSERT_MSG(bg_.empty(), "background load already attached");
  bg_.reserve(cpus_.size());
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    bg_.push_back(std::make_unique<BackgroundLoad>(
        sim_, *cpus_[i], streams.get("bg-load", i), config));
  }
}

BackgroundLoad& Cluster::backgroundLoad(ProcessorId id) {
  RTDRM_ASSERT(hasBackgroundLoad() && id.value < bg_.size());
  return *bg_[id.value];
}

void Cluster::setNodeUp(ProcessorId id, bool up) {
  RTDRM_ASSERT(id.value < cpus_.size());
  if (cpus_[id.value]->isUp() == up) {
    return;
  }
  cpus_[id.value]->setUp(up);
  // The membership of the index changed mid-sample: invalidate it (and any
  // outstanding cursors, via their generation guard).
  ++sample_generation_;
}

std::size_t Cluster::upCount() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    n += cpus_[i]->isUp() ? 1 : 0;
  }
  return n;
}

const std::vector<Utilization>& Cluster::sampleUtilization() {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    last_sample_[i] = probes_[i].sample();
  }
  // Invalidate, don't rebuild: periods with no management action never pay
  // for the index, and one rebuild serves every query until the next
  // sample.
  ++sample_generation_;
  ++samples_taken_;
  return last_sample_;
}

void Cluster::samplePartitionInto(std::size_t lo, std::size_t hi,
                                  std::vector<Utilization>& out) {
  RTDRM_ASSERT(lo < hi && hi <= cpus_.size());
  out.resize(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    out[i - lo] = probes_[i].sample();
  }
  ++samples_taken_;
}

void Cluster::applyGossipSample(ProcessorId id, Utilization u) {
  RTDRM_ASSERT(id.value < last_sample_.size());
  last_sample_[id.value] = u;
  ++sample_generation_;
}

Utilization Cluster::lastUtilization(ProcessorId id) const {
  RTDRM_ASSERT(id.value < last_sample_.size());
  return last_sample_[id.value];
}

Utilization Cluster::meanUtilization() const {
  // Down nodes are out of the capacity pool; the mean is over survivors.
  double sum = 0.0;
  std::size_t up = 0;
  for (std::size_t i = 0; i < last_sample_.size(); ++i) {
    if (!cpus_[i]->isUp()) {
      continue;
    }
    sum += last_sample_[i].value();
    ++up;
  }
  if (up == 0) {
    return Utilization::zero();
  }
  return Utilization::fraction(sum / static_cast<double>(up));
}

void Cluster::rebuildIndex() const {
  // Down nodes are masked out entirely: the heap only ever holds
  // placeable capacity, so every query path inherits the masking.
  util_heap_.clear();
  for (std::size_t i = 0; i < last_sample_.size(); ++i) {
    if (!cpus_[i]->isUp()) {
      continue;
    }
    util_heap_.push_back(
        {last_sample_[i].value(), static_cast<std::uint32_t>(i)});
  }
  const std::size_t n = util_heap_.size();
  // Bottom-up 4-ary heapify: sift down every internal node.
  if (n > 1) {
    for (std::size_t root = (n - 2) / 4 + 1; root-- > 0;) {
      std::size_t hole = root;
      const UtilEntry moved = util_heap_[hole];
      while (true) {
        const std::size_t first_child = 4 * hole + 1;
        if (first_child >= n) {
          break;
        }
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (keyLess(util_heap_[c], util_heap_[best])) {
            best = c;
          }
        }
        if (!keyLess(util_heap_[best], moved)) {
          break;
        }
        util_heap_[hole] = util_heap_[best];
        hole = best;
      }
      util_heap_[hole] = moved;
    }
  }
  index_generation_ = sample_generation_;
  ++index_rebuilds_;
}

std::optional<ProcessorId> Cluster::leastUtilizedScan(
    const std::vector<ProcessorId>& exclude) const {
  std::optional<ProcessorId> best;
  double best_u = 0.0;
  for (std::uint32_t i = 0; i < cpus_.size(); ++i) {
    const ProcessorId id{i};
    if (!cpus_[i]->isUp() ||
        std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
      continue;
    }
    const double u = last_sample_[i].value();
    if (!best || u < best_u) {
      best = id;
      best_u = u;
    }
  }
  return best;
}

std::optional<ProcessorId> Cluster::leastUtilized(
    const std::vector<ProcessorId>& exclude) const {
  if (!index_enabled_) {
    return leastUtilizedScan(exclude);
  }
  if (index_generation_ != sample_generation_) {
    rebuildIndex();
  }
  std::fill(exclude_bits_.begin(), exclude_bits_.end(), 0);
  for (const ProcessorId p : exclude) {
    if (p.value < cpus_.size()) {  // out-of-range ids can never match
      exclude_bits_[p.value >> 6] |= std::uint64_t{1} << (p.value & 63);
    }
  }

  // Best-first descent: the frontier holds roots of unexplored subtrees,
  // ordered by key. Every unexplored entry lies below some frontier root
  // and so has a key >= its root's; hence the first non-excluded entry
  // popped is the global minimum over all non-excluded nodes. Each
  // excluded pop expands at most 4 children, so the work is proportional
  // to the excluded entries actually in the way, not to the cluster size.
  const auto greater = [this](std::uint32_t a, std::uint32_t b) {
    return keyLess(util_heap_[b], util_heap_[a]);
  };
  frontier_.clear();
  const std::size_t n = util_heap_.size();
  if (n == 0) {  // every node down: nothing placeable
    return std::nullopt;
  }
  frontier_.push_back(0);
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), greater);
    const std::uint32_t i = frontier_.back();
    frontier_.pop_back();
    const UtilEntry& e = util_heap_[i];
    if ((exclude_bits_[e.id >> 6] >> (e.id & 63) & 1u) == 0) {
      return ProcessorId{e.id};
    }
    const std::size_t first_child = 4 * static_cast<std::size_t>(i) + 1;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      frontier_.push_back(static_cast<std::uint32_t>(c));
      std::push_heap(frontier_.begin(), frontier_.end(), greater);
    }
  }
  return std::nullopt;
}

Cluster::UtilizationCursor::UtilizationCursor(
    const Cluster& cluster, const std::vector<ProcessorId>& exclude)
    : cluster_(&cluster), use_index_(cluster.index_enabled_) {
  if (!use_index_) {
    // Reference mode reproduces the seed's cost model: one full scan per
    // yield, against the accumulated exclusion list.
    scan_exclude_ = exclude;
    return;
  }
  if (cluster.index_generation_ != cluster.sample_generation_) {
    cluster.rebuildIndex();
  }
  generation_ = cluster.sample_generation_;
  exclude_bits_.assign(cluster.exclude_bits_.size(), 0);
  for (const ProcessorId p : exclude) {
    if (p.value < cluster.cpus_.size()) {  // out-of-range ids never match
      exclude_bits_[p.value >> 6] |= std::uint64_t{1} << (p.value & 63);
    }
  }
  if (!cluster.util_heap_.empty()) {
    frontier_.push_back(0);
  }
}

std::optional<ProcessorId> Cluster::UtilizationCursor::next() {
  ++cluster_->cursor_advances_;
  if (!use_index_) {
    const auto got = cluster_->leastUtilizedScan(scan_exclude_);
    if (got) {
      scan_exclude_.push_back(*got);
    }
    return got;
  }
  RTDRM_ASSERT_MSG(generation_ == cluster_->sample_generation_,
                   "utilization cursor outlived its sample");
  // Best-first over the 4-ary heap, children pushed on every pop: keys
  // come out in globally sorted (u, id) order, each heap node is expanded
  // exactly once, and excluded or already-yielded entries are simply
  // skipped — so yield k+1 is the minimum over nodes outside
  // (exclude ∪ yields 1..k), which is precisely what a fresh
  // leastUtilized() with that grown exclusion set would return.
  const auto& heap = cluster_->util_heap_;
  const auto greater = [&heap](std::uint32_t a, std::uint32_t b) {
    return keyLess(heap[b], heap[a]);
  };
  const std::size_t n = heap.size();
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), greater);
    const std::uint32_t i = frontier_.back();
    frontier_.pop_back();
    const std::size_t first_child = 4 * static_cast<std::size_t>(i) + 1;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      frontier_.push_back(static_cast<std::uint32_t>(c));
      std::push_heap(frontier_.begin(), frontier_.end(), greater);
    }
    const UtilEntry& e = heap[i];
    if ((exclude_bits_[e.id >> 6] >> (e.id & 63) & 1u) == 0) {
      return ProcessorId{e.id};
    }
  }
  return std::nullopt;
}

const std::vector<ProcessorId>& Cluster::belowUtilization(
    Utilization limit) const {
  below_scratch_.clear();
  const double lim = limit.value();
  if (!index_enabled_) {
    for (std::uint32_t i = 0; i < cpus_.size(); ++i) {
      if (cpus_[i]->isUp() && last_sample_[i].value() < lim) {
        below_scratch_.push_back(ProcessorId{i});
      }
    }
    return below_scratch_;
  }
  if (index_generation_ != sample_generation_) {
    rebuildIndex();
  }
  // Pruned DFS: a subtree whose root is already at or above the limit
  // cannot contain a below-limit node. Matches are then put in ascending
  // id order — the order Fig. 7 adds them in, and the order the scan
  // produced — so downstream decisions are unchanged.
  frontier_.clear();
  const std::size_t n = util_heap_.size();
  if (n > 0 && util_heap_[0].u < lim) {
    frontier_.push_back(0);
  }
  while (!frontier_.empty()) {
    const std::uint32_t i = frontier_.back();
    frontier_.pop_back();
    below_scratch_.push_back(ProcessorId{util_heap_[i].id});
    const std::size_t first_child = 4 * static_cast<std::size_t>(i) + 1;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      if (util_heap_[c].u < lim) {
        frontier_.push_back(static_cast<std::uint32_t>(c));
      }
    }
  }
  std::sort(below_scratch_.begin(), below_scratch_.end());
  return below_scratch_;
}

void Cluster::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("node.index_rebuilds").set(index_rebuilds_);
  reg.counter("node.cursor_advances").set(cursor_advances_);
  reg.counter("node.samples_taken").set(samples_taken_);
  reg.gauge("node.up_count").set(static_cast<double>(upCount()));
  reg.gauge("node.mean_utilization").set(meanUtilization().value());
}

}  // namespace rtdrm::node
