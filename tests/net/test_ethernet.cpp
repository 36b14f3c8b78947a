#include "net/ethernet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::net {
namespace {

EthernetConfig wireOnly() {
  EthernetConfig cfg;
  cfg.host_ns_per_byte = 0.0;  // isolate wire behaviour
  cfg.propagation = SimDuration::zero();
  return cfg;
}

TEST(Ethernet, LocalDeliveryBypassesWire) {
  sim::Simulator sim;
  Ethernet net(sim, 2);
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{0}, Bytes::kilo(100.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered = true;
                     EXPECT_DOUBLE_EQ(r.bufferDelay().ms(), 0.0);
                   }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(net.busyTime().ms(), 0.0);
  EXPECT_EQ(net.framesOnWire(), 0u);
  EXPECT_EQ(net.messagesDelivered(), 1u);
}

TEST(Ethernet, SingleFrameTransmissionTime) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  double delivered_at = -1.0;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered_at = r.delivered.ms();
                     EXPECT_DOUBLE_EQ(r.bufferDelay().ms(), 0.0);
                   }});
  sim.runAll();
  // (1500 + 38 overhead) bytes at 100 Mbps = 123.04 us.
  EXPECT_NEAR(delivered_at, (1500.0 + 38.0) * 8.0 / 100e6 * 1000.0, 1e-9);
  EXPECT_EQ(net.framesOnWire(), 1u);
}

TEST(Ethernet, FragmentsLargeMessages) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(4000.0), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.framesOnWire(), 3u);  // 1500 + 1500 + 1000
  const double expected_ms =
      (1538.0 + 1538.0 + 1038.0) * 8.0 / 100e6 * 1000.0;
  EXPECT_NEAR(net.busyTime().ms(), expected_ms, 1e-9);
  EXPECT_NEAR(net.payloadBytesCarried(), 4000.0, 1e-9);
}

TEST(Ethernet, ShortFramesPaddedToMinimum) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(10.0), "m", {}});
  sim.runAll();
  // Padded to 46 B payload + 38 B overhead = 84 B.
  EXPECT_NEAR(net.busyTime().ms(), 84.0 * 8.0 / 100e6 * 1000.0, 1e-12);
}

TEST(Ethernet, ZeroPayloadStillDelivers) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::zero(), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.framesOnWire(), 1u);
}

TEST(Ethernet, PropagationDelayAppliedAfterLastBit) {
  sim::Simulator sim;
  EthernetConfig cfg = wireOnly();
  cfg.propagation = SimDuration::micros(5.0);
  Ethernet net(sim, 2, cfg);
  double delivered_at = -1.0;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered_at = r.delivered.ms();
                   }});
  sim.runAll();
  EXPECT_NEAR(delivered_at, 1538.0 * 8.0 / 100e6 * 1000.0 + 0.005, 1e-9);
}

TEST(Ethernet, SameNicMessagesQueueFifo) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  std::vector<int> order;
  MessageReceipt second_receipt{};
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "a",
                   [&](const MessageReceipt&) { order.push_back(1); }});
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "b",
                   [&](const MessageReceipt& r) {
                     order.push_back(2);
                     second_receipt = r;
                   }});
  sim.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // The second message waited for the first frame: buffer delay > 0.
  EXPECT_GT(second_receipt.bufferDelay().ms(), 0.0);
}

TEST(Ethernet, CrossNicArbitrationInterleavesFairly) {
  sim::Simulator sim;
  Ethernet net(sim, 3, wireOnly());
  double a_done = -1.0;
  double b_done = -1.0;
  // Two equal 2-frame messages from different NICs enqueued together:
  // frames interleave, so both finish at about the same (total) time.
  net.send(Message{ProcessorId{0}, ProcessorId{2}, Bytes::of(3000.0), "a",
                   [&](const MessageReceipt& r) { a_done = r.delivered.ms(); }});
  net.send(Message{ProcessorId{1}, ProcessorId{2}, Bytes::of(3000.0), "b",
                   [&](const MessageReceipt& r) { b_done = r.delivered.ms(); }});
  sim.runAll();
  const double total = net.busyTime().ms();
  EXPECT_NEAR(a_done, total, total * 0.35);
  EXPECT_NEAR(b_done, total, 1e-9);  // last frame ends the busy period
  EXPECT_EQ(net.framesOnWire(), 4u);
}

TEST(Ethernet, BusyTimeConservation) {
  sim::Simulator sim;
  Ethernet net(sim, 4, wireOnly());
  int delivered = 0;
  double expected_busy = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double payload = 500.0 + 250.0 * i;
    // Account for fragmentation: each frame carries <= 1500 B payload
    // (padded up to 46 B) plus 38 B of overhead.
    double wire = 0.0;
    for (double left = payload; left > 0.0; left -= 1500.0) {
      wire += std::max(std::min(left, 1500.0), 46.0) + 38.0;
    }
    expected_busy += wire * 8.0 / 100e6 * 1000.0;
    net.send(Message{ProcessorId{static_cast<std::uint32_t>(i % 4)},
                     ProcessorId{static_cast<std::uint32_t>((i + 1) % 4)},
                     Bytes::of(payload), "m",
                     [&](const MessageReceipt&) { ++delivered; }});
  }
  sim.runAll();
  EXPECT_EQ(delivered, 10);
  EXPECT_NEAR(net.busyTime().ms(), expected_busy, 1e-9);
  EXPECT_EQ(net.backloggedMessages(), 0u);
}

TEST(Ethernet, MarshallingDelaysFirstBit) {
  sim::Simulator sim;
  EthernetConfig cfg;
  cfg.propagation = SimDuration::zero();
  cfg.host_ns_per_byte = 87.5;
  Ethernet net(sim, 2, cfg);
  MessageReceipt receipt{};
  // 8000 B = one hundred 80 B tracks; marshalling = 0.7 ms (Table 3's k).
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(8000.0), "m",
                   [&](const MessageReceipt& r) { receipt = r; }});
  sim.runAll();
  EXPECT_NEAR(receipt.bufferDelay().ms(), 0.7, 1e-9);
}

TEST(Ethernet, MarshallingIsSequentialPerNic) {
  sim::Simulator sim;
  EthernetConfig cfg;
  cfg.propagation = SimDuration::zero();
  cfg.host_ns_per_byte = 100.0;
  Ethernet net(sim, 2, cfg);
  MessageReceipt r1{};
  MessageReceipt r2{};
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(10000.0), "a",
                   [&](const MessageReceipt& r) { r1 = r; }});
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(10000.0), "b",
                   [&](const MessageReceipt& r) { r2 = r; }});
  sim.runAll();
  // Second message marshals only after the first: >= 2 ms buffer delay.
  EXPECT_NEAR(r1.bufferDelay().ms(), 1.0, 1e-6);
  EXPECT_GE(r2.bufferDelay().ms(), 2.0 - 1e-6);
}

TEST(Ethernet, ReceiptDecomposesTotalDelay) {
  sim::Simulator sim;
  Ethernet net(sim, 2);
  MessageReceipt receipt{};
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(5000.0), "m",
                   [&](const MessageReceipt& r) { receipt = r; }});
  sim.runAll();
  EXPECT_NEAR(receipt.totalDelay().ms(),
              receipt.bufferDelay().ms() + receipt.transferDelay().ms(),
              1e-12);
  EXPECT_GT(receipt.bufferDelay().ms(), 0.0);
  EXPECT_GT(receipt.transferDelay().ms(), 0.0);
}

TEST(Ethernet, PerNicPayloadAttribution) {
  sim::Simulator sim;
  Ethernet net(sim, 3, wireOnly());
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(4000.0), "a", {}});
  net.send(Message{ProcessorId{2}, ProcessorId{1}, Bytes::of(1000.0), "b", {}});
  sim.runAll();
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{0}), 4000.0, 1e-9);
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{1}), 0.0, 1e-9);
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{2}), 1000.0, 1e-9);
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{0}) +
                  net.payloadBytesFrom(ProcessorId{2}),
              net.payloadBytesCarried(), 1e-9);
}

TEST(NetworkProbe, WindowedUtilization) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  NetworkProbe probe(sim, net);
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::kilo(125.0), "m", {}});
  sim.runUntil(SimTime::millis(20.0));
  // 125 kB ~ 84 frames; ~10.25 ms of wire time in a 20 ms window.
  const double u = probe.sample().value();
  EXPECT_GT(u, 0.4);
  EXPECT_LT(u, 0.6);
  sim.runUntil(SimTime::millis(40.0));
  EXPECT_NEAR(probe.sample().value(), 0.0, 1e-9);
}

// Property: for any payload, frames = ceil(payload/mtu) (minimum 1) and
// payload bytes are conserved.
class EthernetFragmentation : public ::testing::TestWithParam<double> {};

TEST_P(EthernetFragmentation, FrameCountAndPayloadConservation) {
  const double payload = GetParam();
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(payload), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  const auto expected_frames =
      payload <= 0.0 ? 1u
                     : static_cast<std::uint64_t>(
                           (payload + 1499.0) / 1500.0);
  EXPECT_EQ(net.framesOnWire(), expected_frames);
  EXPECT_NEAR(net.payloadBytesCarried(), payload, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, EthernetFragmentation,
                         ::testing::Values(0.0, 1.0, 46.0, 1499.0, 1500.0,
                                           1501.0, 3000.0, 80000.0));

// Regression: the delivered counter and the delivery observer fire inside
// the scheduled delivery event — at the receipt's `delivered` time, after
// the propagation delay — not eagerly when the last frame clears the wire.
TEST(Ethernet, WireDeliveryCountedAtDeliveryTime) {
  sim::Simulator sim;
  EthernetConfig cfg = wireOnly();
  cfg.propagation = SimDuration::millis(1.0);
  Ethernet net(sim, 2, cfg);
  double observed_at = -1.0;
  net.setDeliveryObserver(
      [&](const MessageReceipt& r) {
        observed_at = sim.now().ms();
        EXPECT_DOUBLE_EQ(r.delivered.ms(), sim.now().ms());
      });
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   {}});
  const double wire_ms = 1538.0 * 8.0 / 100e6 * 1000.0;
  sim.runUntil(SimTime::millis(wire_ms + 0.5));  // wire clear, in flight
  EXPECT_EQ(net.messagesDelivered(), 0u);
  EXPECT_DOUBLE_EQ(observed_at, -1.0);
  sim.runAll();
  EXPECT_EQ(net.messagesDelivered(), 1u);
  EXPECT_NEAR(observed_at, wire_ms + 1.0, 1e-9);
  net.setDeliveryObserver(nullptr);
}

TEST(Ethernet, LocalDeliveryCountedAfterPropagation) {
  sim::Simulator sim;
  EthernetConfig cfg = wireOnly();
  cfg.propagation = SimDuration::millis(1.0);
  Ethernet net(sim, 2, cfg);
  net.send(Message{ProcessorId{0}, ProcessorId{0}, Bytes::of(100.0), "m",
                   {}});
  sim.runUntil(SimTime::millis(0.5));
  EXPECT_EQ(net.messagesDelivered(), 0u);
  sim.runAll();
  EXPECT_EQ(net.messagesDelivered(), 1u);
}

// Pin of intended behaviour: a same-node hand-off bypasses the wire AND
// the per-NIC marshalling stage — it models an in-memory pointer pass, so
// it neither pays host_ns_per_byte nor occupies the NIC for later
// cross-node messages from the same source.
TEST(Ethernet, LocalDeliveryBypassesMarshallingStage) {
  sim::Simulator sim;
  EthernetConfig cfg;  // defaults: host_ns_per_byte = 87.5
  cfg.propagation = SimDuration::zero();
  Ethernet net(sim, 2, cfg);
  double local_at = -1.0;
  double remote_at = -1.0;
  // 100 kB locally would cost 8.75 ms of marshalling if it were charged.
  net.send(Message{ProcessorId{0}, ProcessorId{0}, Bytes::kilo(100.0), "l",
                   [&](const MessageReceipt& r) {
                     local_at = r.delivered.ms();
                     EXPECT_DOUBLE_EQ(r.bufferDelay().ms(), 0.0);
                   }});
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(100.0), "r",
                   [&](const MessageReceipt& r) {
                     remote_at = r.delivered.ms();
                   }});
  sim.runAll();
  EXPECT_DOUBLE_EQ(local_at, 0.0);
  // The cross-node message marshals only its own 100 B (8.75 us) and then
  // pays one padded frame (138 B): it is NOT queued behind the local
  // message's hypothetical marshalling.
  EXPECT_NEAR(remote_at,
              100.0 * 87.5 * 1e-6 + 138.0 * 8.0 / 100e6 * 1000.0, 1e-9);
}

TEST(Ethernet, LostFrameIsRetransmittedNotSuppressed) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  int calls = 0;
  net.setFrameFateHook([&](const FrameHop&) {
    return ++calls == 1 ? Ethernet::FrameFate::kLose
                        : Ethernet::FrameFate::kDeliver;
  });
  double delivered_at = -1.0;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered_at = r.delivered.ms();
                   }});
  sim.runAll();
  EXPECT_EQ(net.framesLost(), 1u);
  EXPECT_EQ(net.messagesDelivered(), 1u);
  const double frame_ms = 1538.0 * 8.0 / 100e6 * 1000.0;
  // The lost attempt burned a full wire slot before the retransmit.
  EXPECT_NEAR(delivered_at, 2.0 * frame_ms, 1e-9);
  EXPECT_NEAR(net.busyTime().ms(), 2.0 * frame_ms, 1e-9);
  net.setFrameFateHook(nullptr);
}

TEST(Ethernet, SameNodeHandoffExemptFromFrameFateHook) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  int hook_calls = 0;
  net.setFrameFateHook([&](const FrameHop&) {
    ++hook_calls;
    return Ethernet::FrameFate::kLose;
  });
  bool delivered = false;
  net.send(Message{ProcessorId{1}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(net.framesLost(), 0u);
  net.setFrameFateHook(nullptr);
}

// ---- frame wire time ------------------------------------------------------

std::uint64_t bitsOf(SimDuration d) {
  return std::bit_cast<std::uint64_t>(d.ms());
}

/// The expression the cached full-frame time replaces, written out.
SimDuration directWireTime(const EthernetConfig& cfg, Bytes chunk) {
  return cfg.rate.transmissionTime(std::max(chunk, cfg.min_payload) +
                                   cfg.frame_overhead);
}

TEST(FrameTimer, FullFrameTimeIsBitEqualToDirectExpression) {
  std::vector<EthernetConfig> configs(4);
  configs[1].mtu = Bytes::of(20.0);  // mtu < min_payload: full frames pad
  configs[2].rate = BitRate::mbps(33.3);
  configs[2].mtu = Bytes::of(9000.0);
  configs[2].frame_overhead = Bytes::zero();
  configs[3].rate = BitRate::mbps(7.0);
  configs[3].mtu = Bytes::of(1499.7);
  configs[3].min_payload = Bytes::zero();
  for (const EthernetConfig& cfg : configs) {
    SCOPED_TRACE(cfg.mtu.count());
    const FrameTimer timer(cfg);
    EXPECT_EQ(bitsOf(timer(cfg.mtu)), bitsOf(directWireTime(cfg, cfg.mtu)));
    for (const double chunk : {0.0, 1.0, 19.5, 46.0, 47.0, 1499.0}) {
      if (Bytes::of(chunk) < cfg.mtu) {
        EXPECT_EQ(bitsOf(timer(Bytes::of(chunk))),
                  bitsOf(directWireTime(cfg, Bytes::of(chunk))));
      }
    }
  }
}

TEST(FrameTimer, MtuBelowMinimumPadsEveryFrame) {
  sim::Simulator sim;
  EthernetConfig cfg = wireOnly();
  cfg.mtu = Bytes::of(20.0);
  Ethernet net(sim, 2, cfg);
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(50.0), "m", {}});
  sim.runAll();
  EXPECT_EQ(net.framesOnWire(), 3u);  // 20 + 20 + 10, each padded to 46
  EXPECT_NEAR(net.busyTime().ms(), 3.0 * 84.0 * 8.0 / 100e6 * 1000.0, 1e-12);
}

// ---- config validation ----------------------------------------------------

using EthernetConfigDeathTest = ::testing::Test;

TEST(EthernetConfigDeathTest, RejectsNonPositiveRate) {
  EthernetConfig cfg;
  cfg.rate = BitRate::mbps(0.0);
  EXPECT_DEATH(cfg.validate(), "rate must be positive");
}

TEST(EthernetConfigDeathTest, RejectsNonPositiveMtu) {
  EthernetConfig cfg;
  cfg.mtu = Bytes::zero();
  EXPECT_DEATH(cfg.validate(), "mtu must be positive");
}

TEST(EthernetConfigDeathTest, RejectsNegativeMinPayload) {
  EthernetConfig cfg;
  cfg.min_payload = Bytes::of(-1.0);
  EXPECT_DEATH(cfg.validate(), "min payload must be non-negative");
}

TEST(EthernetConfigDeathTest, RejectsNegativeFrameOverhead) {
  EthernetConfig cfg;
  cfg.frame_overhead = Bytes::of(-1.0);
  EXPECT_DEATH(cfg.validate(), "frame overhead must be non-negative");
}

TEST(EthernetConfigDeathTest, RejectsNegativePropagation) {
  EthernetConfig cfg;
  cfg.propagation = SimDuration::micros(-1.0);
  EXPECT_DEATH(cfg.validate(), "propagation must be non-negative");
}

TEST(EthernetConfigDeathTest, RejectsNegativeHostCost) {
  EthernetConfig cfg;
  cfg.host_ns_per_byte = -1.0;
  EXPECT_DEATH(cfg.validate(), "host ns per byte must be non-negative");
}

TEST(EthernetConfigDeathTest, BusAndFabricConstructorsValidate) {
  sim::Simulator sim;
  EthernetConfig cfg;
  cfg.propagation = SimDuration::micros(-1.0);
  EXPECT_DEATH(Ethernet(sim, 2, cfg), "propagation");
  SwitchedFabricConfig fabric;
  fabric.link = cfg;
  EXPECT_DEATH(SwitchedFabric(sim, 2, fabric), "propagation");
}

}  // namespace
}  // namespace rtdrm::net
