// Event-kernel microbenchmark: the slab + indexed-4-ary-heap kernel
// (sim::Simulator) against the seed kernel (priority_queue + callback map +
// tombstone set + std::function), compiled side by side in this binary so
// before/after is one run. Three synthetic cases exercise the hot paths —
// schedule/fire churn, schedule/cancel churn, a periodic-activity storm —
// and one end-to-end case times a full Fig. 9 triangular episode pair on
// the production kernel. A bus frame-train case streams frames through
// net::Ethernet twice: once on the calendar (a no-op post-event hook makes
// every frame end a heap event) and once with frame trains advancing the
// clock in place (Simulator::advanceTo); its "events" are wire frames.
// A fabric hop case sends constant-delay hop events through fixed-delay
// lanes and, for comparison, through the heap with scheduleAfter.
// Prints ns/event & events/sec, cross-checks that both kernels of each
// pair fire in the identical order (checksum), and writes
// bench_out/sim_kernel.csv.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "net/ethernet.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::bench {
namespace {

// ---- the seed kernel, verbatim ----------------------------------------
// Kept here (not in src/) purely as the benchmark baseline.
namespace legacy {

class Simulator {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  sim::EventId scheduleAt(SimTime at, Callback cb) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{at.ms(), seq});
    callbacks_.emplace(seq, std::move(cb));
    return sim::EventId{seq};
  }
  sim::EventId scheduleAfter(SimDuration delay, Callback cb) {
    return scheduleAt(now_ + delay, std::move(cb));
  }

  bool cancel(sim::EventId id) {
    auto it = callbacks_.find(id.value);
    if (it == callbacks_.end()) {
      return false;
    }
    callbacks_.erase(it);
    cancelled_.insert(id.value);
    return true;
  }

  void runUntil(SimTime until) {
    while (!heap_.empty()) {
      if (heap_.top().time_ms > until.ms()) {
        break;
      }
      fireHead();
    }
    if (now_ < until) {
      now_ = until;
    }
  }

  void runAll() {
    while (!heap_.empty()) {
      fireHead();
    }
  }

  std::uint64_t eventsExecuted() const { return events_executed_; }

 private:
  struct Entry {
    double time_ms;
    std::uint64_t seq;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time_ms != b.time_ms) {
        return a.time_ms > b.time_ms;
      }
      return a.seq > b.seq;
    }
  };

  void fireHead() {
    const Entry e = heap_.top();
    heap_.pop();
    if (cancelled_.erase(e.seq) > 0) {
      return;
    }
    auto it = callbacks_.find(e.seq);
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    now_ = SimTime::millis(e.time_ms);
    ++events_executed_;
    cb();
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<std::uint64_t, Callback> callbacks_;
  std::unordered_set<std::uint64_t> cancelled_;
};

}  // namespace legacy

// ---- cases --------------------------------------------------------------
// Callbacks capture ~24 bytes (two words + a payload double), matching the
// repo's real call-site shapes ([this, nic], [this, job], [cb, receipt])
// that exceed std::function's 16-byte inline budget.

struct CaseResult {
  std::uint64_t events = 0;
  double best_sec = 0.0;
  std::uint64_t checksum = 0;

  double nsPerEvent() const {
    return best_sec * 1e9 / static_cast<double>(events);
  }
  double eventsPerSec() const {
    return static_cast<double>(events) / best_sec;
  }
};

/// Schedule/fire churn: `waves` rounds of scheduling a batch at scrambled
/// times and draining it — the steady-state pattern of every episode.
template <typename Sim>
CaseResult churnCase(std::uint64_t waves, std::uint64_t batch) {
  CaseResult r;
  r.events = waves * batch;
  for (int rep = 0; rep < 3; ++rep) {
    Sim sim;
    std::uint64_t sum = 0;
    double payload = 0.25;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t w = 0; w < waves; ++w) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        const double at = static_cast<double>((i * 7919u) % batch);
        sim.scheduleAfter(SimDuration::millis(at),
                          [&sum, i, payload] {
                            sum = sum * 31 + i + static_cast<std::uint64_t>(payload);
                          });
      }
      sim.runAll();
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (rep == 0 || dt.count() < r.best_sec) {
      r.best_sec = dt.count();
    }
    r.checksum = sum;
  }
  return r;
}

/// Schedule/cancel churn: every wave schedules a batch then cancels half of
/// it before draining — the SlackMonitor / Ethernet-cutoff pattern.
template <typename Sim>
CaseResult cancelCase(std::uint64_t waves, std::uint64_t batch) {
  CaseResult r;
  r.events = waves * batch;  // scheduled events (half fire, half cancel)
  for (int rep = 0; rep < 3; ++rep) {
    Sim sim;
    std::uint64_t sum = 0;
    double payload = 0.5;
    std::vector<sim::EventId> ids(batch);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t w = 0; w < waves; ++w) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        const double at = static_cast<double>((i * 104729u) % batch);
        ids[i] = sim.scheduleAfter(
            SimDuration::millis(at), [&sum, i, payload] {
              sum = sum * 31 + i + static_cast<std::uint64_t>(payload);
            });
      }
      for (std::uint64_t i = 0; i < batch; i += 2) {
        sim.cancel(ids[i]);
      }
      sim.runAll();
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (rep == 0 || dt.count() < r.best_sec) {
      r.best_sec = dt.count();
    }
    r.checksum = sum;
  }
  return r;
}

/// Timer churn: the watchdog pattern every pipeline run uses — arm a
/// cutoff far in the future, finish almost immediately, cancel the cutoff.
/// The seed kernel leaves a tombstone in the heap (and the cancelled set)
/// until the far-future time finally pops, so the calendar inflates with
/// dead entries; the slab kernel releases the closure in O(1) and prunes
/// the heap whenever it goes half-stale.
template <typename Sim>
CaseResult timerCase(std::uint64_t waves, std::uint64_t batch) {
  CaseResult r;
  r.events = waves * batch;  // armed-and-cancelled timers
  for (int rep = 0; rep < 3; ++rep) {
    Sim sim;
    std::uint64_t sum = 0;
    double payload = 0.75;
    std::vector<sim::EventId> ids(batch);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t w = 0; w < waves; ++w) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        ids[i] = sim.scheduleAfter(
            SimDuration::millis(1000.0 + static_cast<double>(i)),
            [&sum, i, payload] {
              sum = sum * 31 + i + static_cast<std::uint64_t>(payload);
            });
      }
      for (std::uint64_t i = 0; i < batch; ++i) {
        sim.cancel(ids[i]);  // the run beat its cutoff, as usual
      }
      sim.scheduleAfter(SimDuration::millis(1.0),
                        [&sum] { sum = sum * 31 + 1; });
      sim.runUntil(sim.now() + SimDuration::millis(1.0));
    }
    sim.runAll();  // drain whatever the kernel left behind
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (rep == 0 || dt.count() < r.best_sec) {
      r.best_sec = dt.count();
    }
    r.checksum = sum;
  }
  return r;
}

/// Periodic-activity storm: `k` self-rescheduling activities with distinct
/// periods tick for a horizon — the TaskRunner/clock-sync/monitor pattern.
/// Hand-rolled recurrence (not PeriodicActivity) so both kernels run the
/// exact same code shape.
template <typename Sim>
CaseResult stormCase(std::uint64_t k, double horizon_ms) {
  CaseResult r;
  for (int rep = 0; rep < 3; ++rep) {
    Sim sim;
    std::uint64_t sum = 0;
    std::uint64_t fired = 0;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::function<void()>> tickers(k);
    for (std::uint64_t a = 0; a < k; ++a) {
      const double period = 1.0 + 0.01 * static_cast<double>(a);
      tickers[a] = [&sim, &sum, &fired, &tickers, a, period, horizon_ms] {
        sum = sum * 31 + a;
        ++fired;
        if (sim.now().ms() + period <= horizon_ms) {
          sim.scheduleAfter(SimDuration::millis(period), [&tickers, a] {
            tickers[a]();
          });
        }
      };
      sim.scheduleAfter(SimDuration::millis(period),
                        [&tickers, a] { tickers[a](); });
    }
    sim.runUntil(SimTime::millis(horizon_ms));
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (rep == 0 || dt.count() < r.best_sec) {
      r.best_sec = dt.count();
    }
    r.events = fired;
    r.checksum = sum;
  }
  return r;
}

/// Bus frame train: one NIC streams `messages` 1000-MTU messages with no
/// marshalling stage, so every frame end except each message's last is the
/// next event due. `force_calendar` installs a no-op post-event hook, which
/// makes every advance refuse and sends each frame end through the heap.
/// Counts wire frames, so ns/event reads as ns/frame; the checksum folds
/// every receipt's delivery time, so both paths must agree bit for bit.
CaseResult frameTrainCase(std::uint64_t messages, bool force_calendar) {
  CaseResult r;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    if (force_calendar) {
      sim.setPostEventHook([] {});
    }
    net::EthernetConfig cfg;
    cfg.host_ns_per_byte = 0.0;
    net::Ethernet bus(sim, 2, cfg);
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < messages; ++i) {
      bus.send(net::Message{ProcessorId{0}, ProcessorId{1},
                            cfg.mtu * 1000.0, "train",
                            [&sum](const net::MessageReceipt& rc) {
                              sum = sum * 31 + std::bit_cast<std::uint64_t>(
                                                   rc.delivered.ms());
                            }});
    }
    sim.runAll();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (rep == 0 || dt.count() < r.best_sec) {
      r.best_sec = dt.count();
    }
    r.events = bus.framesOnWire();
    r.checksum = sum;
  }
  return r;
}

/// Fabric hops: `flows` frames in flight, each hopping with one of three
/// constant delays in turn (a full frame's wire time, one propagation,
/// propagation plus switch latency), over a heap background of 3/2 *
/// `flows` timers at scrambled delays: the shape of a scale_fabric
/// episode. `on_lanes` sends the hops through Simulator lanes, otherwise
/// through scheduleAfter; the timers use the heap either way. The checksum
/// folds every firing's (label, clock bits), so both must fire in the
/// identical order.
class FabricHops {
 public:
  FabricHops(std::uint64_t flows, double horizon_ms, bool on_lanes)
      : on_lanes_(on_lanes), horizon_ms_(horizon_ms) {
    for (int k = 0; k < 3; ++k) {
      lanes_[k] = sim_.addLane(kDelays[k]);
    }
    for (std::uint64_t f = 0; f < flows; ++f) {
      hop(f, static_cast<unsigned>(f % 3));
    }
    for (std::uint64_t t = 0; t < flows * 3 / 2; ++t) {
      timer(t + flows, 0);
    }
  }

  CaseResult run() {
    const auto t0 = std::chrono::steady_clock::now();
    sim_.runAll();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    CaseResult r;
    r.best_sec = dt.count();
    r.events = sim_.eventsExecuted();
    r.checksum = sum_;
    return r;
  }

 private:
  static constexpr SimDuration kDelays[3] = {
      SimDuration::millis(0.12304), SimDuration::millis(0.0005),
      SimDuration::millis(0.0025)};

  void fold(std::uint64_t label) {
    sum_ = sum_ * 31 + label + std::bit_cast<std::uint64_t>(sim_.now().ms());
  }

  void hop(std::uint64_t flow, unsigned kind) {
    fold(flow);
    if (sim_.now().ms() >= horizon_ms_) {
      return;
    }
    auto next = [this, flow, kind] { hop(flow, (kind + 1) % 3); };
    if (on_lanes_) {
      sim_.scheduleOnLane(lanes_[kind], std::move(next));
    } else {
      sim_.scheduleAfter(kDelays[kind], std::move(next));
    }
  }

  void timer(std::uint64_t label, std::uint64_t tick) {
    fold(label);
    if (sim_.now().ms() >= horizon_ms_) {
      return;
    }
    const double delay_ms =
        0.05 + static_cast<double>((label * 7919 + tick * 104729) % 997) *
                   1e-3;
    sim_.scheduleAfter(SimDuration::millis(delay_ms), [this, label, tick] {
      timer(label, tick + 1);
    });
  }

  sim::Simulator sim_;
  bool on_lanes_;
  double horizon_ms_;
  sim::LaneId lanes_[3];
  std::uint64_t sum_ = 0;
};

CaseResult fabricHopCase(std::uint64_t flows, double horizon_ms,
                         bool on_lanes) {
  CaseResult best;
  for (int rep = 0; rep < 3; ++rep) {
    FabricHops hops(flows, horizon_ms, on_lanes);
    const CaseResult r = hops.run();
    if (rep == 0 || r.best_sec < best.best_sec) {
      best = r;
    }
  }
  return best;
}

/// End-to-end: one Fig. 9 triangular episode pair (both algorithms) at a
/// mid-sweep workload on the production kernel. No legacy counterpart —
/// the stack links only one kernel — so this row tracks wall clock across
/// PRs via BENCH_kernel.json.
double episodeCaseSec() {
  const auto& spec = aawSpec();
  const auto& models = fittedModels().models;
  auto cfg = paperSweepConfig();
  workload::RampParams ramp = cfg.ramp;
  ramp.max_workload = DataSize::tracks(18.0 * 500.0);
  const auto pattern = workload::makeFig8Pattern("triangular", ramp);
  experiments::EpisodeConfig ep = cfg.episode;
  ep.manager.d_init = ramp.min_workload;

  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    experiments::runEpisode(spec, *pattern, models,
                            experiments::AlgorithmKind::kPredictive, ep);
    experiments::runEpisode(spec, *pattern, models,
                            experiments::AlgorithmKind::kNonPredictive, ep);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (rep == 0 || dt.count() < best) {
      best = dt.count();
    }
  }
  return best;
}

struct Row {
  std::string case_name;
  std::string kernel;
  CaseResult res;
};

void printRow(const Row& row) {
  std::cout << "  " << std::left << std::setw(16) << row.case_name
            << std::setw(10) << row.kernel << std::right << std::setw(12)
            << row.res.events << std::setw(12) << std::fixed
            << std::setprecision(1) << row.res.nsPerEvent() << std::setw(14)
            << std::setprecision(2) << row.res.eventsPerSec() / 1e6 << "\n";
}

}  // namespace
}  // namespace rtdrm::bench

int main(int argc, char** argv) {
  using namespace rtdrm;
  using namespace rtdrm::bench;

  // Default scale: ~512 events pending at once, the order of what a Figs.
  // 9-13 testbed keeps in flight (processor quanta, NIC frames, activity
  // ticks across 6 nodes), with enough waves for 1M+ events total.
  // Override with: bench_sim_kernel [batch] [waves].
  std::uint64_t kBatch = 512;
  std::uint64_t kWaves = 2000;
  if (argc > 1) {
    kBatch = std::strtoull(argv[1], nullptr, 10);
  }
  if (argc > 2) {
    kWaves = std::strtoull(argv[2], nullptr, 10);
  }
  if (kBatch == 0 || kWaves == 0) {
    std::cerr << "usage: bench_sim_kernel [batch >= 1] [waves >= 1]\n";
    return 2;
  }

  std::vector<Row> rows;
  rows.push_back({"churn", "legacy", churnCase<legacy::Simulator>(kWaves, kBatch)});
  rows.push_back({"churn", "slab", churnCase<sim::Simulator>(kWaves, kBatch)});
  rows.push_back({"cancel", "legacy", cancelCase<legacy::Simulator>(kWaves, kBatch)});
  rows.push_back({"cancel", "slab", cancelCase<sim::Simulator>(kWaves, kBatch)});
  rows.push_back({"timer", "legacy", timerCase<legacy::Simulator>(kWaves, kBatch)});
  rows.push_back({"timer", "slab", timerCase<sim::Simulator>(kWaves, kBatch)});
  rows.push_back({"storm", "legacy", stormCase<legacy::Simulator>(256, 4000.0)});
  rows.push_back({"storm", "slab", stormCase<sim::Simulator>(256, 4000.0)});
  rows.push_back({"bus frame train", "calendar", frameTrainCase(200, true)});
  rows.push_back({"bus frame train", "advance", frameTrainCase(200, false)});
  rows.push_back({"fabric hop", "heap", fabricHopCase(kBatch, 100.0, false)});
  rows.push_back({"fabric hop", "lane", fabricHopCase(kBatch, 100.0, true)});

  std::cout << "\nEvent kernel microbench (best of 3)\n";
  std::cout << "  " << std::left << std::setw(16) << "case" << std::setw(10)
            << "kernel" << std::right << std::setw(12) << "events"
            << std::setw(12) << "ns/event" << std::setw(14) << "Mevents/s"
            << "\n";
  for (const auto& r : rows) {
    printRow(r);
  }

  bool ok = true;
  std::cout << "\nSpeedups (legacy / slab, calendar / advance, heap / "
               "lane) and fire-order cross-check:\n";
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const auto& legacy_row = rows[i];
    const auto& slab_row = rows[i + 1];
    const double speedup =
        legacy_row.res.best_sec / slab_row.res.best_sec;
    const bool same_order =
        legacy_row.res.checksum == slab_row.res.checksum &&
        legacy_row.res.events == slab_row.res.events;
    ok = ok && same_order;
    std::cout << "  " << std::left << std::setw(16) << legacy_row.case_name
              << std::right << std::fixed << std::setprecision(2)
              << speedup << "x   "
              << (same_order ? "order identical" : "ORDER MISMATCH") << "\n";
  }

  const double episode_sec = episodeCaseSec();
  std::cout << "\nEnd-to-end triangular episode pair (slab kernel): "
            << std::fixed << std::setprecision(1) << episode_sec * 1e3
            << " ms\n";

  std::filesystem::create_directories("bench_out");
  std::ofstream csv("bench_out/sim_kernel.csv");
  csv << "case,kernel,events,ns_per_event,events_per_sec\n";
  for (const auto& r : rows) {
    csv << r.case_name << ',' << r.kernel << ',' << r.res.events << ','
        << r.res.nsPerEvent() << ',' << r.res.eventsPerSec() << '\n';
  }
  csv << "episode_pair,slab," << 1 << ',' << episode_sec * 1e9 << ','
      << 1.0 / episode_sec << '\n';
  std::cout << "(written to bench_out/sim_kernel.csv)\n";

  std::cout << (ok ? "\nCross-check PASSED: both kernels fire in the "
                     "identical (time, insertion-order) order.\n"
                   : "\nCross-check FAILED.\n");
  return ok ? 0 : 1;
}
