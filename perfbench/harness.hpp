// Pure building blocks of the rtdrm benchmark: host clocks, the span
// log of the traced pass, tail-percentile selection, failure accounting,
// metric-name rules, outcome digests and a small JSON writer. Everything
// here is independent of the simulator so the benchmark's own unit tests
// (selftest.cpp) can exercise it directly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
std::int64_t nowNs();

// ---- spans -----------------------------------------------------------------

/// One timed interval of the traced pass. `parent` indexes the enclosing
/// span in the same SpanLog (-1 = root); all spans of one op share `op`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = -1;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// In-memory span store for one op (or one setup phase). Not thread-safe:
/// concurrent ops each own a log, merged when the pass ends.
class SpanLog {
 public:
  explicit SpanLog(std::int64_t op = -1) : op_(op) {}

  /// Opens a span under the innermost open span; returns its index.
  int open(const std::string& name);
  void close(int index);
  /// Records an already-measured interval under the innermost open span.
  void add(const std::string& name, std::int64_t start_ns,
           std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of the spans with this name.
  double totalMs(const std::string& name) const;
  /// Span duration minus the time its direct children cover.
  double selfMs(int index) const;

 private:
  std::int64_t op_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Writes every span of every log as a JSON array.
bool writeSpansJson(const std::string& path, const std::vector<SpanLog>& logs);

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);

/// The highest empirical percentile that still has at least `min_beyond`
/// samples strictly after it in sorted order. With n samples that is the
/// order statistic at index n - 1 - min_beyond, whose percentile is
/// 100 * (index + 1) / n. With fewer than min_beyond + 1 samples no
/// percentile qualifies; the maximum is returned with `qualified` false.
struct TailStat {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool qualified = false;
};
TailStat tailPercentile(std::vector<double> samples,
                        std::size_t min_beyond = 10);

// ---- host speed ----------------------------------------------------------

/// Runs a fixed event-queue kernel (a binary heap of timestamped events
/// over a 512 KiB state table, the access pattern of a discrete-event
/// simulator) and returns its host time in milliseconds. It is the
/// benchmark's own code, so no change to the simulator moves it; it tracks
/// only how fast the host runs at the moment.
double calibrationKernelMs();

// ---- failure accounting ----------------------------------------------------

/// Attempted/failed op counts with the first reason seen per failure kind.
class FailureLedger {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& kind, const std::string& detail);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double failedPct() const;
  /// Failure kind -> (count, first detail).
  const std::map<std::string, std::pair<std::uint64_t, std::string>>& kinds()
      const {
    return kinds_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<std::uint64_t, std::string>> kinds_;
};

// ---- metric naming ---------------------------------------------------------

/// A name starts with a letter or digit and has at most 64 letters, digits,
/// '_', '.' and '-'.
bool validMetricName(const std::string& name);
/// A unit has 1..16 letters, digits, '_', '/', '%', '.' and '-'.
bool validUnit(const std::string& unit);

// ---- outcome digests ------------------------------------------------------

/// Byte-exact record of a simulated outcome: doubles in hex-float, counts
/// in decimal, one field per line. Two outcomes match iff their digests do.
class Digest {
 public:
  Digest& add(const char* key, double v);
  Digest& add(const char* key, std::uint64_t v);
  const std::string& str() const { return text_; }

 private:
  std::string text_;
};

/// FNV-1a over `text`, folded into `h`.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

/// Empty when the traced and untraced outcomes of one op agree; otherwise
/// the first differing line of each.
std::string twinMismatch(const Digest& traced, const Digest& untraced);

// ---- JSON ------------------------------------------------------------------

std::string jsonEscape(const std::string& s);
/// `v` with 17 significant digits, which round-trips ("null" when not
/// finite).
std::string jsonNumber(double v);

}  // namespace perfbench
