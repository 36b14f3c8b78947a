// Frame trains: Ethernet::onFrameEnd advances the clock in place while the
// next frame's end is the next event due (Simulator::advanceTo). A no-op
// post-event hook makes every advance refuse, forcing each frame through
// the calendar. For random bus traffic both runs must be bit-identical in
// everything observable: receipts, busy time at every horizon, counters
// and the executed-event count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/ethernet.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::net {
namespace {

struct Send {
  double at_ms;
  std::uint32_t src;
  std::uint32_t dst;
  double payload;
};

struct Traffic {
  std::size_t nodes = 0;
  EthernetConfig cfg;
  std::vector<Send> sends;
  /// Increasing runUntil horizons.
  std::vector<double> horizons_ms;
};

Traffic drawTraffic(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Traffic t;
  t.nodes = static_cast<std::size_t>(rng.uniformInt(2, 8));
  // Half the seeds skip marshalling, so send() arbitrates straight from
  // the timer callback that issued it.
  t.cfg.host_ns_per_byte =
      rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 100.0);
  t.cfg.propagation = SimDuration::micros(rng.uniform(0.0, 10.0));
  const int messages = static_cast<int>(rng.uniformInt(10, 30));
  for (int i = 0; i < messages; ++i) {
    Send s;
    s.at_ms = rng.uniform(0.0, 150.0);
    s.src = static_cast<std::uint32_t>(rng.uniformInt(0, t.nodes - 1));
    s.dst = static_cast<std::uint32_t>(rng.uniformInt(0, t.nodes - 2));
    if (s.dst >= s.src) {
      ++s.dst;  // distinct destination: always on the wire
    }
    const double size_class = rng.uniform01();
    if (size_class < 0.25) {
      s.payload = rng.uniform(0.0, 46.0);  // padded to the minimum frame
    } else if (size_class < 0.5) {
      s.payload = rng.uniform(46.0, 1500.0);
    } else {
      s.payload = rng.uniform(1500.0, 200.0 * 1500.0);
    }
    t.sends.push_back(s);
  }
  double h = 0.0;
  for (int i = 0; i < 12; ++i) {
    h += rng.uniform(0.0, 40.0);
    t.horizons_ms.push_back(h);
  }
  return t;
}

struct Observed {
  /// Per receipt: message index, enqueued, first bit, delivered, payload,
  /// and the clock when the callback ran.
  std::vector<std::vector<double>> receipts;
  std::vector<double> busy_at_horizon;
  /// The clock at every frame-fate decision.
  std::vector<double> fate_times;
  std::uint64_t frames = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delivered = 0;
  double payload = 0.0;
  std::vector<double> payload_from;
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
};

Observed runTraffic(const Traffic& t, bool force_calendar, bool faulty) {
  sim::Simulator sim;
  if (force_calendar) {
    sim.setPostEventHook([] {});
  }
  Ethernet net(sim, t.nodes, t.cfg);
  Observed o;
  if (faulty) {
    // Lossy and duplicating, keyed on the clock: any drift in when a frame
    // ends changes the fates that follow.
    std::uint64_t calls = 0;
    net.setFrameFateHook([&sim, &o, calls](const FrameHop&) mutable {
      const double now = sim.now().ms();
      o.fate_times.push_back(now);
      SplitMix64 mix(std::bit_cast<std::uint64_t>(now) ^ calls++);
      switch (mix.next() % 16) {
        case 0:
          return FrameFate::kLose;
        case 1:
          return FrameFate::kDuplicate;
        default:
          return FrameFate::kDeliver;
      }
    });
  }
  for (std::size_t i = 0; i < t.sends.size(); ++i) {
    const Send s = t.sends[i];
    sim.scheduleAt(SimTime::millis(s.at_ms), [&sim, &net, &o, s, i] {
      net.send(Message{
          ProcessorId{s.src}, ProcessorId{s.dst}, Bytes::of(s.payload), "m",
          [&sim, &o, i](const MessageReceipt& r) {
            o.receipts.push_back({static_cast<double>(i), r.enqueued.ms(),
                                  r.first_bit.ms(), r.delivered.ms(),
                                  r.payload.count(), sim.now().ms()});
          }});
    });
  }
  for (const double h : t.horizons_ms) {
    sim.runUntil(SimTime::millis(h));
    o.busy_at_horizon.push_back(net.busyTime().ms());
  }
  sim.runAll();
  o.busy_at_horizon.push_back(net.busyTime().ms());
  o.frames = net.framesOnWire();
  o.lost = net.framesLost();
  o.duplicated = net.framesDuplicated();
  o.delivered = net.messagesDelivered();
  o.payload = net.payloadBytesCarried();
  for (std::uint32_t n = 0; n < t.nodes; ++n) {
    o.payload_from.push_back(net.payloadBytesFrom(ProcessorId{n}));
  }
  o.executed = sim.eventsExecuted();
  o.scheduled = sim.eventsScheduled();
  return o;
}

void expectIdentical(const Observed& fast, const Observed& slow) {
  EXPECT_EQ(fast.receipts, slow.receipts);
  EXPECT_EQ(fast.busy_at_horizon, slow.busy_at_horizon);
  EXPECT_EQ(fast.fate_times, slow.fate_times);
  EXPECT_EQ(fast.frames, slow.frames);
  EXPECT_EQ(fast.lost, slow.lost);
  EXPECT_EQ(fast.duplicated, slow.duplicated);
  EXPECT_EQ(fast.delivered, slow.delivered);
  EXPECT_EQ(fast.payload, slow.payload);
  EXPECT_EQ(fast.payload_from, slow.payload_from);
  EXPECT_EQ(fast.executed, slow.executed);
}

class EthernetFrameTrain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EthernetFrameTrain, MatchesOneCalendarEventPerFrame) {
  const Traffic t = drawTraffic(GetParam());
  const Observed fast = runTraffic(t, false, false);
  const Observed slow = runTraffic(t, true, false);
  expectIdentical(fast, slow);
  EXPECT_EQ(fast.delivered, t.sends.size());
  // The fast path really engaged: trains of multi-frame messages skipped
  // the calendar.
  EXPECT_LT(fast.scheduled, slow.scheduled);
}

TEST_P(EthernetFrameTrain, MatchesUnderLossyDuplicatingFates) {
  const Traffic t = drawTraffic(GetParam());
  const Observed fast = runTraffic(t, false, true);
  const Observed slow = runTraffic(t, true, true);
  expectIdentical(fast, slow);
  EXPECT_EQ(fast.delivered, t.sends.size());
  EXPECT_GT(fast.lost, 0u);
  EXPECT_GT(fast.duplicated, 0u);
  EXPECT_LT(fast.scheduled, slow.scheduled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EthernetFrameTrain,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace rtdrm::net
