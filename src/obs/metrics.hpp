// MetricsRegistry: named counters, gauges, and histograms.
//
// Instruments register lazily by name and are owned by the registry;
// callers hold references and bump them on the hot path (a counter add is
// one integer increment). Components export into a registry *pull-style*
// via their `exportMetrics(MetricsRegistry&)` members — the registry never
// reaches into sim/net/node/core/fault, which keeps obs at the bottom of
// the dependency order.
//
// Snapshots are deterministic: instruments are emitted in sorted name
// order, so two runs that record the same values produce byte-identical
// JSON/CSV.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

namespace rtdrm::obs {

/// Monotonic integer count.
///
/// Increments are relaxed atomics: a registry may be shared by work fanned
/// out over parallelFor while another thread snapshots, and a plain uint64
/// would be a data race under TSan. Relaxed ordering is
/// enough — each add is independent and exportMetrics() only runs on
/// quiescent components — and costs one lock-free RMW, no fences.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sets the absolute value (for exporting pre-existing component
  /// counters without double counting across snapshots).
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written point-in-time value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution sketch: count/sum/min/max plus power-of-two buckets
/// (bucket i counts observations in [2^(i-1), 2^i); bucket 0 counts
/// values < 1, the last bucket is open-ended).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void observe(double v);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. A name is one kind forever;
  /// asking for an existing name as a different kind asserts.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Lookup without creation (nullptr when absent or a different kind).
  const Counter* findCounter(const std::string& name) const;
  const Gauge* findGauge(const std::string& name) const;
  const Histogram* findHistogram(const std::string& name) const;

  std::size_t size() const { return instruments_.size(); }

  /// Deterministic (sorted-by-name) JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string toJson() const;
  bool writeJson(const std::string& path) const;
  /// Flat CSV: name,kind,value,count,sum,min,max — one row per instrument.
  bool writeCsv(const std::string& path) const;

  void forEachCounter(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void forEachGauge(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void forEachHistogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Instrument {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Instrument& get(const std::string& name, Kind kind);

  // std::map: iteration order == sorted name order == snapshot order.
  std::map<std::string, Instrument> instruments_;
};

}  // namespace rtdrm::obs
