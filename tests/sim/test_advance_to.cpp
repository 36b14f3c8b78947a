// Simulator::advanceTo: the tail-position fast-forward. One case per
// refusal condition, plus the success path and its equivalence to firing
// the same event through the calendar.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace rtdrm::sim {
namespace {

SimTime ms(double v) { return SimTime::millis(v); }

TEST(AdvanceTo, SucceedsWhenNextEventIsLater) {
  Simulator sim;
  sim.scheduleAt(ms(5.0), [] {});
  bool ok = false;
  SimTime after_advance;
  std::uint64_t executed_before = 0;
  std::uint64_t scheduled_before = 0;
  sim.scheduleAt(ms(1.0), [&] {
    executed_before = sim.eventsExecuted();
    scheduled_before = sim.eventsScheduled();
    ok = sim.advanceTo(ms(3.0));
    after_advance = sim.now();
  });
  EXPECT_TRUE(sim.runUntil(ms(10.0)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(after_advance, ms(3.0));
  // Counted as one executed event, but nothing went through the calendar.
  EXPECT_EQ(sim.eventsExecuted(), 3u);
  EXPECT_EQ(executed_before, 1u);
  EXPECT_EQ(scheduled_before, 2u);
  EXPECT_EQ(sim.eventsScheduled(), 2u);
}

TEST(AdvanceTo, SucceedsToNowAndOnAnEmptyCalendar) {
  Simulator sim;
  bool to_now = false;
  bool far = false;
  sim.scheduleAt(ms(1.0), [&] {
    to_now = sim.advanceTo(ms(1.0));
    far = sim.advanceTo(ms(1e6));
  });
  EXPECT_TRUE(sim.runAll());
  EXPECT_TRUE(to_now);
  EXPECT_TRUE(far);
  EXPECT_EQ(sim.now(), ms(1e6));
}

TEST(AdvanceTo, RefusesTimeInThePast) {
  Simulator sim;
  bool ok = true;
  sim.scheduleAt(ms(2.0), [&] { ok = sim.advanceTo(ms(1.0)); });
  sim.runAll();
  EXPECT_FALSE(ok);
  EXPECT_EQ(sim.now(), ms(2.0));
}

TEST(AdvanceTo, RefusesWhenAnEventIsAlreadyAtT) {
  // A pending event at exactly t would win the seq tie-break against a
  // newly scheduled one, so jumping the clock there would reorder them.
  Simulator sim;
  sim.scheduleAt(ms(5.0), [] {});
  bool ok = true;
  std::uint64_t executed_after = 0;
  sim.scheduleAt(ms(1.0), [&] {
    ok = sim.advanceTo(ms(5.0));
    executed_after = sim.eventsExecuted();
    EXPECT_EQ(sim.now(), ms(1.0));
  });
  sim.runAll();
  EXPECT_FALSE(ok);
  EXPECT_EQ(executed_after, 1u);  // a refusal counts nothing
}

TEST(AdvanceTo, RefusesPastRunUntilHorizonButAdmitsItExactly) {
  Simulator sim;
  bool past = true;
  bool at = false;
  sim.scheduleAt(ms(1.0), [&] {
    past = sim.advanceTo(ms(10.5));
    at = sim.advanceTo(ms(10.0));  // runUntil fires events at `until`
  });
  EXPECT_TRUE(sim.runUntil(ms(10.0)));
  EXPECT_FALSE(past);
  EXPECT_TRUE(at);
  EXPECT_EQ(sim.now(), ms(10.0));
}

TEST(AdvanceTo, RefusesInsideStep) {
  Simulator sim;
  bool ok = true;
  sim.scheduleAt(ms(1.0), [&] { ok = sim.advanceTo(ms(2.0)); });
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(ok);
  EXPECT_EQ(sim.now(), ms(1.0));
}

TEST(AdvanceTo, RefusesOutsideAnyRun) {
  Simulator sim;
  EXPECT_FALSE(sim.advanceTo(ms(1.0)));
  sim.scheduleAt(ms(1.0), [] {});
  sim.runUntil(ms(2.0));
  EXPECT_FALSE(sim.advanceTo(ms(3.0)));  // between runs
  EXPECT_EQ(sim.now(), ms(2.0));
}

TEST(AdvanceTo, StepInsideARunRestoresTheRunContext) {
  Simulator sim;
  bool inner = true;
  bool outer = false;
  sim.scheduleAt(ms(1.0), [&] {
    sim.scheduleAt(ms(1.5), [&] { inner = sim.advanceTo(ms(1.75)); });
    sim.step();
    outer = sim.advanceTo(ms(2.0));
  });
  sim.runAll();
  EXPECT_FALSE(inner);
  EXPECT_TRUE(outer);
}

TEST(AdvanceTo, RefusesWithPostEventHook) {
  // The hook would run between this event and the advanced one.
  Simulator sim;
  int hook_calls = 0;
  sim.setPostEventHook([&] { ++hook_calls; });
  bool ok = true;
  sim.scheduleAt(ms(1.0), [&] { ok = sim.advanceTo(ms(2.0)); });
  sim.runAll();
  EXPECT_FALSE(ok);
  EXPECT_EQ(hook_calls, 1);
}

TEST(AdvanceTo, RefusesAfterStopRequestedInTheSameCallback) {
  Simulator sim;
  bool ok = true;
  sim.scheduleAt(ms(1.0), [&] {
    sim.requestStop();
    ok = sim.advanceTo(ms(2.0));
  });
  EXPECT_FALSE(sim.runAll());
  EXPECT_FALSE(ok);
  EXPECT_EQ(sim.now(), ms(1.0));  // the stop lands on the requesting event
}

TEST(AdvanceTo, StaleHeadDoesNotBlock) {
  Simulator sim;
  const EventId cancelled = sim.scheduleAt(ms(2.0), [] {});
  sim.scheduleAt(ms(10.0), [] {});
  bool ok = false;
  sim.scheduleAt(ms(1.0), [&] {
    ASSERT_TRUE(sim.cancel(cancelled));
    ok = sim.advanceTo(ms(5.0));
  });
  sim.runAll();
  EXPECT_TRUE(ok);
  EXPECT_EQ(sim.eventsExecuted(), 3u);  // the 1 ms and 10 ms events + advance
}

// A three-hop chain whose middle hop either advances in place or is
// scheduled through the calendar. Other events are pending at the hop's
// later times, so the run exercises same-time FIFO against events
// scheduled before and after the (possibly elided) hop.
std::vector<std::string> runChain(bool fast, std::uint64_t* executed) {
  Simulator sim;
  std::vector<std::string> log;
  auto note = [&](std::string what) {
    log.push_back(what + "@" + std::to_string(sim.now().ms()));
  };
  sim.scheduleAt(ms(4.0), [&] { note("early-4"); });
  auto hop = [&] {
    note("hop");
    sim.scheduleAt(ms(4.0), [&] { note("hop-4a"); });
    sim.scheduleAt(ms(4.0), [&] { note("hop-4b"); });
    sim.scheduleAt(ms(3.0), [&] { note("hop-3"); });
  };
  sim.scheduleAt(ms(1.0), [&] {
    note("start");
    sim.scheduleAt(ms(3.0), [&] { note("start-3"); });
    if (fast) {
      EXPECT_TRUE(sim.advanceTo(ms(2.0)));
      hop();
    } else {
      sim.scheduleAt(ms(2.0), hop);
    }
  });
  sim.runAll();
  *executed = sim.eventsExecuted();
  return log;
}

TEST(AdvanceTo, PreservesSameTimeFifoOrderOfLaterEvents) {
  std::uint64_t exec_fast = 0;
  std::uint64_t exec_slow = 0;
  const std::vector<std::string> fast = runChain(true, &exec_fast);
  const std::vector<std::string> slow = runChain(false, &exec_slow);
  EXPECT_EQ(fast, slow);
  EXPECT_EQ(exec_fast, exec_slow);
  const std::vector<std::string> want = {
      "start@1.000000",  "hop@2.000000",    "start-3@3.000000",
      "hop-3@3.000000",  "early-4@4.000000", "hop-4a@4.000000",
      "hop-4b@4.000000"};
  EXPECT_EQ(fast, want);
}

}  // namespace
}  // namespace rtdrm::sim
