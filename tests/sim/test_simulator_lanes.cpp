// Fixed-delay lanes: scheduleOnLane(lane, cb) must be scheduleAfter(delay,
// cb) in everything observable. The property test drives random mixes of
// both (2-4 lanes, one of them zero-delay, dyadic delays so entries tie on
// time across lanes and the heap) with cancels heavy enough to prune the
// heap and compact lanes, runUntil horizons that cut lanes, step(),
// requestStop() and advanceTo(), and checks each mix against the same
// schedule made with scheduleAfter only: the firing order, the clock bits
// at each firing, every EventId, every cancel/advance/peek answer and every
// counter must be identical. Along the way it recounts the kernel's stale
// bookkeeping, which must cover each container's own entries exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::sim {

/// The kernel's private bookkeeping, for recounts and clock rewinds.
struct SimulatorTestAccess {
  static std::size_t heapSize(const Simulator& s) { return s.heap_.size(); }
  static std::size_t laneSize(const Simulator& s, LaneId lane) {
    return s.lanes_[lane.value].size;
  }
  static void rewindClock(Simulator& s, SimTime t) { s.now_ = t; }

  /// Recounts the stale entries of the heap and of every lane, the total
  /// lane entry count and the earliest lane against the kernel's own.
  static ::testing::AssertionResult accountingExact(const Simulator& s) {
    const auto stale = [&s](const Simulator::HeapEntry& e) {
      return s.slots_[e.slot].generation != e.generation;
    };
    const auto heap_stale = static_cast<std::size_t>(
        std::count_if(s.heap_.begin(), s.heap_.end(), stale));
    if (heap_stale != s.stale_) {
      return ::testing::AssertionFailure()
             << "heap stale " << s.stale_ << ", recount " << heap_stale;
    }
    std::size_t entries = 0;
    for (const Simulator::Lane& lane : s.lanes_) {
      std::size_t lane_stale = 0;
      for (std::size_t i = 0; i < lane.size; ++i) {
        lane_stale += stale(lane.at(i)) ? 1 : 0;
      }
      if (lane_stale != lane.stale) {
        return ::testing::AssertionFailure()
               << "lane stale " << lane.stale << ", recount " << lane_stale;
      }
      entries += lane.size;
    }
    if (entries != s.lane_entries_) {
      return ::testing::AssertionFailure()
             << "lane entries " << s.lane_entries_ << ", recount " << entries;
    }
    std::uint32_t head = Simulator::kEmpty;
    for (std::uint32_t k = 0; k < s.lanes_.size(); ++k) {
      if (s.lanes_[k].size != 0 &&
          (head == Simulator::kEmpty ||
           Simulator::firesBefore(s.lanes_[k].front(),
                                  s.lanes_[head].front()))) {
        head = k;
      }
    }
    if (head != s.lane_head_) {
      return ::testing::AssertionFailure()
             << "lane head " << s.lane_head_ << ", recount " << head;
    }
    return ::testing::AssertionSuccess();
  }
};

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

enum Tag : std::uint64_t {
  kScheduled = 1,
  kFired,
  kClock,
  kCancel,
  kPeek,
  kAdvance,
  kStep,
  kRun,
  kCounters,
};

/// One run of a mix. With `lanes` false every lane event is made with
/// scheduleAfter(lane delay) instead: the heap-only reference.
class MixRun {
 public:
  MixRun(std::uint64_t seed, const std::vector<double>& lane_delays,
         bool lanes)
      : lanes_(lanes), lane_delays_(lane_delays), rng_(seed) {
    for (const double d : lane_delays_) {
      lane_ids_.push_back(sim_.addLane(SimDuration::millis(d)));
    }
  }

  void drive() {
    for (int i = 0; i < 12; ++i) {
      scheduleOne(pickTarget());
    }
    double horizon = 0.0;
    for (int phase = 0; phase < 60 && sim_.pendingEvents() > 0; ++phase) {
      const double u = rng_.uniform01();
      if (u < 0.1) {
        sim_.requestStop();  // honored by the next run, which fires nothing
      }
      if (u < 0.3) {
        const auto steps = rng_.uniformInt(1, 6);
        for (std::int64_t k = 0; k < steps; ++k) {
          record(kStep, sim_.step() ? 1 : 0);
          record(kClock, bits(sim_.now().ms()));
        }
      } else {
        // Dyadic horizons land exactly on dyadic event times.
        horizon += rng_.uniform01() < 0.5 ? 0.25 * rng_.uniformInt(0, 6)
                                          : rng_.uniform(0.0, 1.5);
        record(kRun, sim_.runUntil(SimTime::millis(horizon)) ? 1 : 0);
        record(kClock, bits(sim_.now().ms()));
      }
      recordCounters();
      EXPECT_TRUE(SimulatorTestAccess::accountingExact(sim_));
    }
    while (!sim_.runAll()) {
      record(kRun, 0);  // a stop requested by the last callbacks
    }
    record(kClock, bits(sim_.now().ms()));
    recordCounters();
    EXPECT_TRUE(SimulatorTestAccess::accountingExact(sim_));
    EXPECT_EQ(sim_.pendingEvents(), 0u);
  }

  const std::vector<std::uint64_t>& log() const { return log_; }
  const Simulator& sim() const { return sim_; }
  std::uint64_t laneSchedules() const { return lane_schedules_; }
  bool pruned() const { return pruned_; }
  bool compacted() const { return compacted_; }

 private:
  static constexpr std::size_t kBudget = 2500;

  void record(Tag tag, std::uint64_t value) {
    log_.push_back(tag);
    log_.push_back(value);
  }

  void recordCounters() {
    record(kCounters, sim_.eventsExecuted());
    log_.push_back(sim_.eventsScheduled());
    log_.push_back(sim_.eventsCancelled());
    log_.push_back(sim_.pendingEvents());
  }

  /// A lane index, or lane count + 0 (dyadic heap delay) / + 1 (any).
  std::size_t pickTarget() {
    return static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(lane_delays_.size()) + 1));
  }

  void scheduleOne(std::size_t target) {
    const std::uint64_t label = ids_.size();
    auto cb = [this, label] { onFire(label); };
    EventId id;
    if (target < lane_delays_.size()) {
      if (lanes_) {
        id = sim_.scheduleOnLane(lane_ids_[target], std::move(cb));
        ++lane_schedules_;
      } else {
        id = sim_.scheduleAfter(SimDuration::millis(lane_delays_[target]),
                                std::move(cb));
      }
    } else if (target == lane_delays_.size()) {
      id = sim_.scheduleAfter(SimDuration::millis(0.25 * rng_.uniformInt(0, 8)),
                              std::move(cb));
    } else {
      id = sim_.scheduleAfter(SimDuration::millis(rng_.uniform(0.0, 2.0)),
                              std::move(cb));
    }
    ids_.push_back(id);
    record(kScheduled, id.value);
  }

  void cancelOne(std::size_t k) {
    const std::size_t heap_before = SimulatorTestAccess::heapSize(sim_);
    std::vector<std::size_t> lanes_before;
    for (const LaneId lane : lane_ids_) {
      lanes_before.push_back(SimulatorTestAccess::laneSize(sim_, lane));
    }
    record(kCancel, sim_.cancel(ids_[k]) ? 1 : 0);
    EXPECT_TRUE(SimulatorTestAccess::accountingExact(sim_));
    // A cancel removes nothing from a container unless it prunes it.
    pruned_ = pruned_ || SimulatorTestAccess::heapSize(sim_) < heap_before;
    for (std::size_t i = 0; i < lane_ids_.size(); ++i) {
      compacted_ = compacted_ || SimulatorTestAccess::laneSize(
                                     sim_, lane_ids_[i]) < lanes_before[i];
    }
  }

  void onFire(std::uint64_t label) {
    record(kFired, label);
    record(kClock, bits(sim_.now().ms()));
    recordCounters();
    EXPECT_TRUE(SimulatorTestAccess::accountingExact(sim_));
    if (ids_.size() < kBudget) {
      const auto children = rng_.uniformInt(0, 2);
      for (std::int64_t c = 0; c < children; ++c) {
        scheduleOne(pickTarget());
      }
    }
    if (rng_.uniform01() < 0.03 && ids_.size() + 150 < kBudget) {
      // A burst into one container, most of it cancelled below: enough
      // stale entries to prune the heap or compact the lane.
      const std::size_t target = pickTarget();
      const std::size_t first = ids_.size();
      const auto n = rng_.uniformInt(100, 150);
      for (std::int64_t c = 0; c < n; ++c) {
        scheduleOne(target);
      }
      for (std::size_t k = first; k < ids_.size(); ++k) {
        if (rng_.uniform01() < 0.8) {
          cancelOne(k);
        }
      }
    }
    if (rng_.uniform01() < 0.3) {
      cancelOne(static_cast<std::size_t>(
          rng_.uniformInt(0, static_cast<std::int64_t>(ids_.size()) - 1)));
    }
    if (rng_.uniform01() < 0.01) {
      sim_.requestStop();
    }
    if (rng_.uniform01() < 0.1) {
      SimTime next;
      const bool has = sim_.peekNextEvent(&next);
      record(kPeek, has ? bits(next.ms()) : ~0ULL);
    }
    if (rng_.uniform01() < 0.1) {
      const double step = rng_.uniform01() < 0.5
                              ? 0.25 * rng_.uniformInt(0, 2)
                              : rng_.uniform(0.0, 0.5);
      const SimTime to = sim_.now() + SimDuration::millis(step);
      record(kAdvance, sim_.advanceTo(to) ? 1 : 0);
      record(kClock, bits(sim_.now().ms()));
    }
  }

  Simulator sim_;
  bool lanes_;
  std::vector<double> lane_delays_;
  std::vector<LaneId> lane_ids_;
  Xoshiro256 rng_;
  std::vector<EventId> ids_;
  std::vector<std::uint64_t> log_;
  std::uint64_t lane_schedules_ = 0;
  bool pruned_ = false;
  bool compacted_ = false;
};

/// 2-4 distinct lane delays; the first lane is zero-delay, the others
/// mostly dyadic (exact sums, so times tie across lanes and the heap).
std::vector<double> drawLaneDelays(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> pool = {0.25, 0.5, 0.75, 1.0, 1.25, 0.3};
  std::vector<double> delays = {0.0};
  const auto extra = rng.uniformInt(1, 3);
  for (std::int64_t i = 0; i < extra; ++i) {
    const auto k = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
    delays.push_back(pool[k]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return delays;
}

TEST(SimulatorLanes, RandomMixesMatchTheHeapOnlyCalendar) {
  bool any_lane_pruned_heap = false;
  bool any_compacted = false;
  bool any_reference_pruned = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<double> delays = drawLaneDelays(seed);
    MixRun with_lanes(seed, delays, true);
    MixRun heap_only(seed, delays, false);
    with_lanes.drive();
    heap_only.drive();
    const auto& a = with_lanes.log();
    const auto& b = heap_only.log();
    const auto diverge = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    ASSERT_TRUE(diverge.first == a.end() && diverge.second == b.end())
        << "logs diverge at word " << (diverge.first - a.begin()) << " of "
        << a.size() << " / " << b.size();
    EXPECT_GT(with_lanes.laneSchedules(), 0u);
    EXPECT_EQ(with_lanes.sim().laneEvents(), with_lanes.laneSchedules());
    EXPECT_EQ(heap_only.sim().laneEvents(), 0u);
    EXPECT_GT(with_lanes.sim().peakLaneDepth(), 0u);
    any_lane_pruned_heap = any_lane_pruned_heap || with_lanes.pruned();
    any_compacted = any_compacted || with_lanes.compacted();
    any_reference_pruned = any_reference_pruned || heap_only.pruned();
  }
  // The cancel bursts really exercised both clean-up paths.
  EXPECT_TRUE(any_lane_pruned_heap);
  EXPECT_TRUE(any_compacted);
  EXPECT_TRUE(any_reference_pruned);
}

TEST(SimulatorLanes, MergesLanesAndHeapByTimeThenSequence) {
  Simulator sim;
  const LaneId slow = sim.addLane(SimDuration::millis(1.0));
  const LaneId now = sim.addLane(SimDuration::zero());
  EXPECT_EQ(sim.addLane(SimDuration::millis(1.0)), slow);  // one per delay
  EXPECT_NE(now, slow);
  std::vector<char> order;
  sim.scheduleOnLane(slow, [&] { order.push_back('a'); });
  sim.scheduleAfter(SimDuration::millis(1.0), [&] { order.push_back('b'); });
  sim.scheduleOnLane(now, [&] { order.push_back('c'); });
  sim.scheduleOnLane(slow, [&] { order.push_back('d'); });
  sim.scheduleAfter(SimDuration::millis(0.5), [&] {
    order.push_back('e');
    sim.scheduleOnLane(now, [&] { order.push_back('f'); });
  });
  sim.runAll();
  EXPECT_EQ(order, (std::vector<char>{'c', 'e', 'f', 'a', 'b', 'd'}));
  EXPECT_EQ(sim.eventsExecuted(), 6u);
  EXPECT_EQ(sim.laneEvents(), 4u);
  EXPECT_EQ(sim.peakLaneDepth(), 2u);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 1.0);
}

TEST(SimulatorLanes, CompactionHandsTheHeadToTheNextEarliestLane) {
  // Lane `a` holds 70 entries at 1.0 ms and 70 at 1.5 ms; lane `b` one at
  // 1.25 ms. Cancelling the 1.0 ms block and one more compacts `a`, whose
  // front jumps past `b`'s: `b` must fire first.
  Simulator sim;
  const LaneId a = sim.addLane(SimDuration::millis(1.0));
  const LaneId b = sim.addLane(SimDuration::millis(0.75));
  std::vector<char> order;
  std::vector<EventId> early;
  std::vector<EventId> late;
  for (int i = 0; i < 70; ++i) {
    early.push_back(sim.scheduleOnLane(a, [&] { order.push_back('x'); }));
  }
  sim.runUntil(SimTime::millis(0.5));
  for (int i = 0; i < 70; ++i) {
    late.push_back(sim.scheduleOnLane(a, [&] { order.push_back('a'); }));
  }
  sim.scheduleOnLane(b, [&] { order.push_back('b'); });
  for (const EventId id : early) {
    EXPECT_TRUE(sim.cancel(id));
  }
  EXPECT_EQ(SimulatorTestAccess::laneSize(sim, a), 140u);
  EXPECT_TRUE(sim.cancel(late.back()));
  EXPECT_EQ(SimulatorTestAccess::laneSize(sim, a), 69u);  // compacted
  EXPECT_TRUE(SimulatorTestAccess::accountingExact(sim));
  sim.runAll();
  ASSERT_EQ(order.size(), 70u);
  EXPECT_EQ(order.front(), 'b');
  EXPECT_EQ(std::count(order.begin(), order.end(), 'a'), 69);
}

TEST(SimulatorLanes, ExportsLaneCounters) {
  Simulator sim;
  const LaneId lane = sim.addLane(SimDuration::millis(2.0));
  for (int i = 0; i < 3; ++i) {
    sim.scheduleOnLane(lane, [] {});
  }
  sim.scheduleAfter(SimDuration::millis(1.0), [] {});
  sim.runAll();
  obs::MetricsRegistry reg;
  sim.exportMetrics(reg);
  EXPECT_EQ(reg.counter("sim.lane_events").value(), 3u);
  EXPECT_EQ(reg.gauge("sim.peak_lane_depth").value(), 3.0);
  EXPECT_EQ(reg.counter("sim.events_executed").value(), 4u);
  EXPECT_EQ(reg.gauge("sim.peak_heap_depth").value(), 1.0);  // heap only
}

using SimulatorLaneDeathTest = ::testing::Test;

TEST(SimulatorLaneDeathTest, OutOfOrderFeedAborts) {
  Simulator sim;
  const LaneId lane = sim.addLane(SimDuration::millis(1.0));
  sim.runUntil(SimTime::millis(5.0));
  sim.scheduleOnLane(lane, [] {});  // fires at 6 ms
  // A clock that ran backwards would feed the lane an entry at 1 ms.
  SimulatorTestAccess::rewindClock(sim, SimTime::zero());
  EXPECT_DEATH(sim.scheduleOnLane(lane, [] {}),
               "lane entry would fire before the lane's tail");
}

TEST(SimulatorLaneDeathTest, NegativeDelayAborts) {
  Simulator sim;
  EXPECT_DEATH(sim.addLane(SimDuration::millis(-1.0)), "negative delay");
}

}  // namespace
}  // namespace rtdrm::sim
