// Frame trains: Ethernet::onFrameEnd advances the clock in place while the
// next frame's end is the next event due (Simulator::advanceTo). A no-op
// post-event hook makes every advance refuse, forcing each frame through
// the calendar. For random bus traffic both runs must be bit-identical in
// everything observable: receipts, busy time at every horizon, counters
// and the executed-event count. Seeds from kWideSeeds on draw buses whose
// NIC count straddles the 64-bit word boundary of the bus's backlog set, and
// a digest pins the per-frame (clock, source) order the fate hook sees, so
// round-robin arbitration is checked against fixed outcomes as well as
// against the calendar path.
#include <gtest/gtest.h>

#include <algorithm>
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

/// First seed of the wide-bus draws; lower seeds draw 2-8 NICs.
constexpr std::uint64_t kWideSeeds = 101;
/// Wide bus widths: one word less one, exactly one word, and past it.
constexpr std::size_t kWideNodes[] = {63, 64, 65, 70};

Traffic drawTraffic(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Traffic t;
  const bool wide = seed >= kWideSeeds;
  const auto narrow_nodes = static_cast<std::size_t>(rng.uniformInt(2, 8));
  t.nodes = wide ? kWideNodes[seed % 4] : narrow_nodes;
  // NICs on both sides of the first word boundary, where round-robin
  // arbitration crosses from one 64-bit word of the backlog set to the
  // next (or wraps back to NIC 0).
  const std::uint32_t edge[] = {0, 1, 62, 63, 64,
                                static_cast<std::uint32_t>(t.nodes - 1)};
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
    if (wide && rng.uniform01() < 0.5) {
      s.src = std::min(edge[rng.uniformInt(0, 5)],
                       static_cast<std::uint32_t>(t.nodes - 1));
    }
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
  /// FNV-1a over the (clock bits, source NIC) of every frame-fate decision.
  std::uint64_t fate_digest = 0xcbf29ce484222325ULL;
  std::uint64_t frames = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delivered = 0;
  double payload = 0.0;
  std::vector<double> payload_from;
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
};

void mixDigest(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

enum class Fates {
  kNoHook,
  /// A hook that records every decision and always delivers.
  kDeliver,
  /// Lossy and duplicating, keyed on the clock: any drift in when a frame
  /// ends changes the fates that follow.
  kLossy,
};

Observed runTraffic(const Traffic& t, bool force_calendar, Fates fates) {
  sim::Simulator sim;
  if (force_calendar) {
    sim.setPostEventHook([] {});
  }
  Ethernet net(sim, t.nodes, t.cfg);
  Observed o;
  if (fates != Fates::kNoHook) {
    const bool lossy = fates == Fates::kLossy;
    std::uint64_t calls = 0;
    net.setFrameFateHook([&sim, &o, lossy, calls](const FrameHop& hop) mutable {
      const double now = sim.now().ms();
      o.fate_times.push_back(now);
      mixDigest(o.fate_digest, std::bit_cast<std::uint64_t>(now));
      mixDigest(o.fate_digest, hop.src.value);
      if (!lossy) {
        return FrameFate::kDeliver;
      }
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
  const Observed fast = runTraffic(t, false, Fates::kNoHook);
  const Observed slow = runTraffic(t, true, Fates::kNoHook);
  expectIdentical(fast, slow);
  EXPECT_EQ(fast.delivered, t.sends.size());
  // The fast path really engaged: trains of multi-frame messages skipped
  // the calendar.
  EXPECT_LT(fast.scheduled, slow.scheduled);
}

TEST_P(EthernetFrameTrain, MatchesUnderLossyDuplicatingFates) {
  const Traffic t = drawTraffic(GetParam());
  const Observed fast = runTraffic(t, false, Fates::kLossy);
  const Observed slow = runTraffic(t, true, Fates::kLossy);
  expectIdentical(fast, slow);
  EXPECT_EQ(fast.delivered, t.sends.size());
  EXPECT_GT(fast.lost, 0u);
  EXPECT_GT(fast.duplicated, 0u);
  EXPECT_LT(fast.scheduled, slow.scheduled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EthernetFrameTrain,
                         ::testing::Range<std::uint64_t>(1, 13));
INSTANTIATE_TEST_SUITE_P(WideSeeds, EthernetFrameTrain,
                         ::testing::Range<std::uint64_t>(kWideSeeds,
                                                         kWideSeeds + 8));

// Fixed per-frame (clock, source) digests: any change to which NIC wins the
// bus, or to when a frame ends, changes them.
struct PinnedOrder {
  std::uint64_t seed;
  std::uint64_t deliver_digest;
  std::uint64_t lossy_digest;
};

constexpr PinnedOrder kPinnedOrders[] = {
    {1, 0x6079fac322c64ba7ULL, 0x0a61f0b83880ac1dULL},
    {2, 0xa7c340c9ef0477eaULL, 0xe308203cdbf042dbULL},
    {3, 0xd69773f391428dc7ULL, 0x18a3fe0c90a6840dULL},
    {4, 0x9c8834f1121535d9ULL, 0x9782ee438f2d0ff1ULL},
    {5, 0xa0e7bd40fcdb59e8ULL, 0x19c026c9ae2ce86aULL},
    {6, 0xe0bcb1c199a96674ULL, 0xe67dcb5f0d2dff39ULL},
    {101, 0x4c6b82ee367d42a7ULL, 0x3fe59d1b7908e9a5ULL},
    {102, 0x5e8c9e23a0b253dcULL, 0xa1f97ce29fa0d923ULL},
    {103, 0xfc3ae1bdc251f0c7ULL, 0xd8735ed9f5b37126ULL},
    {104, 0x6ba8d0e17d8e67d7ULL, 0xa1b69d5fa05e4b67ULL},
    {105, 0x1e87cd8c409a98f4ULL, 0x709533ecf825aabbULL},
    {106, 0x3e138c6ae0cb6326ULL, 0x96fbb480a3fed1b2ULL},
    {107, 0x7eda73e4ee317b43ULL, 0x849ea8a6d4d9f327ULL},
    {108, 0x7dcc397d21240408ULL, 0x259e5073f11901aeULL},
};

TEST(EthernetArbitrationOrder, MatchesPinnedDigests) {
  for (const PinnedOrder& pin : kPinnedOrders) {
    SCOPED_TRACE(pin.seed);
    const Traffic t = drawTraffic(pin.seed);
    const Observed deliver = runTraffic(t, false, Fates::kDeliver);
    const Observed lossy = runTraffic(t, false, Fates::kLossy);
    EXPECT_EQ(deliver.fate_times.size(), deliver.frames);
    EXPECT_EQ(deliver.fate_digest, pin.deliver_digest);
    EXPECT_EQ(lossy.fate_digest, pin.lossy_digest);
  }
}

}  // namespace
}  // namespace rtdrm::net
