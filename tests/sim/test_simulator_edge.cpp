// Edge cases for the slab/heap event kernel: cancellation corner cases,
// tombstone handling, requestStop() between-runs semantics, determinism,
// and the EventFn small-callback wrapper.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace rtdrm::sim {
namespace {

// ---------------------------------------------------------------------------
// Cancellation edge cases

TEST(SimulatorEdge, CancelFromInsideFiringCallback) {
  Simulator sim;
  bool second_ran = false;
  EventId second = sim.scheduleAt(SimTime::millis(20.0),
                                  [&] { second_ran = true; });
  bool cancel_ok = false;
  sim.scheduleAt(SimTime::millis(10.0),
                 [&] { cancel_ok = sim.cancel(second); });
  sim.runAll();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(sim.eventsExecuted(), 1u);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorEdge, CancelOwnIdFromInsideCallbackReturnsFalse) {
  // By the time a callback runs, its own id is already dead.
  Simulator sim;
  bool self_cancel = true;
  EventId id{};
  id = sim.scheduleAt(SimTime::millis(1.0),
                      [&] { self_cancel = sim.cancel(id); });
  sim.runAll();
  EXPECT_FALSE(self_cancel);
}

TEST(SimulatorEdge, CancelAlreadyFiredIdReturnsFalse) {
  Simulator sim;
  const EventId id = sim.scheduleAt(SimTime::millis(1.0), [] {});
  sim.runAll();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorEdge, CancelIsIdempotent) {
  Simulator sim;
  const EventId id = sim.scheduleAt(SimTime::millis(1.0), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorEdge, StaleIdDoesNotCancelSlotReuser) {
  // After cancel, the slot is recycled. The old id must not be able to
  // cancel the new occupant (generation check).
  Simulator sim;
  const EventId old_id = sim.scheduleAt(SimTime::millis(5.0), [] {});
  ASSERT_TRUE(sim.cancel(old_id));
  bool reuser_ran = false;
  sim.scheduleAt(SimTime::millis(6.0), [&] { reuser_ran = true; });
  EXPECT_FALSE(sim.cancel(old_id));
  sim.runAll();
  EXPECT_TRUE(reuser_ran);
}

TEST(SimulatorEdge, StepSkipsCancelledTombstones) {
  Simulator sim;
  std::vector<int> order;
  std::array<EventId, 4> ids{};
  for (int i = 0; i < 4; ++i) {
    ids[static_cast<std::size_t>(i)] = sim.scheduleAt(
        SimTime::millis(static_cast<double>(i + 1)),
        [&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(sim.cancel(ids[0]));
  ASSERT_TRUE(sim.cancel(ids[2]));
  EXPECT_TRUE(sim.step());  // skips tombstone at t=1, fires i=1
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.now().ms(), 2.0);
  EXPECT_TRUE(sim.step());  // skips tombstone at t=3, fires i=3
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_FALSE(sim.step());  // queue drained
}

TEST(SimulatorEdge, PendingEventsTracksMixedOperations) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.scheduleAt(SimTime::millis(static_cast<double>(i + 1)),
                                 [] {}));
  }
  EXPECT_EQ(sim.pendingEvents(), 100u);
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(sim.cancel(ids[i]));
  }
  EXPECT_EQ(sim.pendingEvents(), 50u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sim.step());
  }
  EXPECT_EQ(sim.pendingEvents(), 40u);
  sim.runAll();
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.eventsExecuted(), 50u);
}

TEST(SimulatorEdge, SameTimestampFifoSurvivesHeavyChurn) {
  // Interleave schedule/cancel at one timestamp; the survivors must still
  // fire in the order they were scheduled.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 200; ++i) {
    const EventId id = sim.scheduleAt(SimTime::millis(10.0),
                                      [&order, i] { order.push_back(i); });
    if (i % 3 != 0) {
      cancelled.push_back(id);
    }
  }
  for (const EventId id : cancelled) {
    ASSERT_TRUE(sim.cancel(id));
  }
  sim.runAll();
  std::vector<int> expected;
  for (int i = 0; i < 200; i += 3) {
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(SimulatorEdge, IdenticalRunsProduceIdenticalTraces) {
  // Two simulators driven by the same schedule/cancel sequence must fire
  // the same events at the same times in the same order.
  const auto drive = [] {
    Simulator sim;
    std::vector<std::pair<double, int>> trace;
    std::vector<EventId> ids;
    for (int i = 0; i < 500; ++i) {
      const double t = static_cast<double>((i * 7919) % 97);
      ids.push_back(sim.scheduleAt(
          SimTime::millis(t),
          [&trace, &sim, i] { trace.emplace_back(sim.now().ms(), i); }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 5) {
      sim.cancel(ids[i]);
    }
    sim.runAll();
    return trace;
  };
  EXPECT_EQ(drive(), drive());
}

// ---------------------------------------------------------------------------
// requestStop() between-runs semantics

TEST(SimulatorEdge, StopRequestedBetweenRunsHaltsNextRun) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAt(SimTime::millis(10.0), [&] { ++fired; });
  sim.requestStop();
  EXPECT_TRUE(sim.stopPending());
  sim.runAll();  // consumes the stop: fires nothing, clock untouched
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 0.0);
  EXPECT_FALSE(sim.stopPending());
  sim.runAll();  // flag consumed: this run proceeds normally
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 10.0);
}

TEST(SimulatorEdge, StopRequestedBetweenRunsHaltsRunUntilWithoutIdling) {
  Simulator sim;
  sim.requestStop();
  sim.runUntil(SimTime::millis(100.0));
  // A consumed pending stop must not idle the clock to the horizon.
  EXPECT_DOUBLE_EQ(sim.now().ms(), 0.0);
}

TEST(SimulatorEdge, StepIgnoresPendingStop) {
  Simulator sim;
  bool ran = false;
  sim.scheduleAt(SimTime::millis(1.0), [&] { ran = true; });
  sim.requestStop();
  EXPECT_TRUE(sim.step());  // step() is already a single-event run
  EXPECT_TRUE(ran);
  EXPECT_TRUE(sim.stopPending());  // flag untouched, next run consumes it
}

TEST(SimulatorEdge, MidRunStopLeavesClockAtStoppingEvent) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAt(SimTime::millis(10.0), [&] {
    ++fired;
    sim.requestStop();
  });
  sim.scheduleAt(SimTime::millis(20.0), [&] { ++fired; });
  sim.runUntil(SimTime::millis(100.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 10.0);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.runUntil(SimTime::millis(100.0));  // resumes where it left off
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 100.0);
}

// ---------------------------------------------------------------------------
// EventFn wrapper

TEST(SimulatorStop, RunUntilReportsStopConsumption) {
  Simulator sim;
  sim.scheduleAt(SimTime::millis(1.0), [&] { sim.requestStop(); });
  sim.scheduleAt(SimTime::millis(5.0), [] {});
  EXPECT_FALSE(sim.runUntil(SimTime::millis(10.0)));
  EXPECT_FALSE(sim.stopPending());
  EXPECT_TRUE(sim.runUntil(SimTime::millis(10.0)));
}

TEST(SimulatorPeek, PeekSkipsCancelledHeads) {
  Simulator sim;
  const EventId doomed = sim.scheduleAt(SimTime::millis(1.0), [] {});
  sim.scheduleAt(SimTime::millis(3.0), [] {});
  sim.cancel(doomed);
  SimTime t;
  ASSERT_TRUE(sim.peekNextEvent(&t));
  EXPECT_DOUBLE_EQ(t.ms(), 3.0);
  Simulator empty;
  EXPECT_FALSE(empty.peekNextEvent(&t));
}

TEST(EventFn, EmptyByDefault) {
  EventFn<void()> fn;
  EXPECT_TRUE(fn == nullptr);
  EXPECT_FALSE(fn != nullptr);
}

TEST(EventFn, InvokesSmallCaptureInline) {
  int hits = 0;
  EventFn<void()> fn = [&hits] { ++hits; };
  EXPECT_TRUE(fn != nullptr);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, PassesArgumentsAndReturnsValue) {
  EventFn<int(int, int)> fn = [](int a, int b) { return a * 10 + b; };
  EXPECT_EQ(fn(3, 4), 34);
}

TEST(EventFn, LargeCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: exceeds inline storage
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = i + 1;
  }
  EventFn<std::uint64_t()> fn = [big] {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : big) {
      sum += v;
    }
    return sum;
  };
  EXPECT_EQ(fn(), 136u);
}

TEST(EventFn, MoveTransfersOwnership) {
  int hits = 0;
  EventFn<void()> a = [&hits] { ++hits; };
  EventFn<void()> b = std::move(a);
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move): documented
  EXPECT_TRUE(b != nullptr);
  b();
  EXPECT_EQ(hits, 1);
}

TEST(EventFn, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  EventFn<void()> fn = [token] {};
  token.reset();
  EXPECT_FALSE(alive.expired());
  fn = [] {};
  EXPECT_TRUE(alive.expired());  // old capture destroyed on assignment
}

TEST(EventFn, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(42);
  EventFn<int()> fn = [p = std::move(p)] { return *p; };
  EXPECT_EQ(fn(), 42);
}

TEST(EventFn, NullptrAssignmentClears) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  EventFn<void()> fn = [token] {};
  token.reset();
  fn = nullptr;
  EXPECT_TRUE(fn == nullptr);
  EXPECT_TRUE(alive.expired());
}

}  // namespace
}  // namespace rtdrm::sim
