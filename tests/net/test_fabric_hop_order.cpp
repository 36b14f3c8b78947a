// Pinned hop order of the switched fabric. For random traffic on line and
// star fabrics (some seeds with two-frame port buffers, so tail drops and
// NACK returns are frequent) an FNV digest covers the (clock bits, segment,
// port) of every hop the frame-fate hook sees, the (message, clock bits) of
// every delivery, same-node hand-offs included, and the end-of-run
// counters. The digests were recorded before the fabric's constant-delay
// hops moved from the calendar heap to fixed-delay lanes; any change in
// which event fires first, or at which clock value, changes them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::net {
namespace {

void mixDigest(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

struct HopRun {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
};

/// Seeds below this draw deep port buffers; from it on, two-frame buffers.
constexpr std::uint64_t kPressureSeeds = 7;

HopRun runHops(std::uint64_t seed, bool lossy) {
  Xoshiro256 rng(seed);
  sim::Simulator sim;
  SwitchedFabricConfig cfg;
  const std::size_t nodes = static_cast<std::size_t>(rng.uniformInt(6, 16));
  cfg.segments = static_cast<std::size_t>(rng.uniformInt(2, 5));
  cfg.topology = seed % 2 == 0 ? FabricTopology::kLine : FabricTopology::kStar;
  cfg.port_buffer_frames = seed >= kPressureSeeds ? 2 : 4096;
  cfg.switch_latency = SimDuration::micros(rng.uniform(0.0, 5.0));
  cfg.link.propagation = SimDuration::micros(rng.uniform(0.0, 10.0));
  cfg.link.host_ns_per_byte =
      rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 50.0);
  SwitchedFabric net(sim, nodes, cfg);

  HopRun run;
  std::uint64_t calls = 0;
  net.setFrameFateHook([&sim, &run, lossy, calls](const FrameHop& hop) mutable {
    const std::uint64_t now = std::bit_cast<std::uint64_t>(sim.now().ms());
    mixDigest(run.digest, now);
    mixDigest(run.digest, hop.segment);
    mixDigest(run.digest, hop.port);
    if (!lossy) {
      return FrameFate::kDeliver;
    }
    SplitMix64 mix(now ^ calls++);
    switch (mix.next() % 16) {
      case 0:
        return FrameFate::kLose;
      case 1:
        return FrameFate::kDuplicate;
      default:
        return FrameFate::kDeliver;
    }
  });

  // Pressure seeds send in a burst, half of it converging on node 0.
  const bool pressure = seed >= kPressureSeeds;
  const int messages = static_cast<int>(rng.uniformInt(40, 90));
  for (int i = 0; i < messages; ++i) {
    const double at = rng.uniform(0.0, pressure ? 2.0 : 30.0);
    const auto src = static_cast<std::uint32_t>(rng.uniformInt(0, nodes - 1));
    // One message in eight stays on its node: the same-node hand-off.
    const double dst_class = rng.uniform01();
    const auto dst = dst_class < 0.125 ? src
                     : pressure && dst_class < 0.5
                         ? 0U
                         : static_cast<std::uint32_t>(
                               rng.uniformInt(0, nodes - 1));
    const double size_class = rng.uniform01();
    const double payload = size_class < 0.3   ? rng.uniform(0.0, 46.0)
                           : size_class < 0.6 ? rng.uniform(46.0, 1500.0)
                                              : rng.uniform(1500.0, 12000.0);
    sim.scheduleAt(SimTime::millis(at), [&sim, &net, &run, i, src, dst,
                                         payload] {
      net.send(Message{ProcessorId{src}, ProcessorId{dst},
                       Bytes::of(payload), "m",
                       [&sim, &run, i](const MessageReceipt&) {
                         mixDigest(run.digest,
                                   static_cast<std::uint64_t>(i));
                         mixDigest(run.digest, std::bit_cast<std::uint64_t>(
                                                   sim.now().ms()));
                       }});
    });
  }
  sim.runAll();
  EXPECT_EQ(net.messagesDelivered(), static_cast<std::uint64_t>(messages));
  EXPECT_EQ(net.framesInFabric(), 0u);
  mixDigest(run.digest, net.framesOnWire());
  mixDigest(run.digest, sim.eventsExecuted());
  mixDigest(run.digest, sim.eventsScheduled());
  run.dropped = net.framesDropped();
  run.lost = net.framesLost();
  run.duplicated = net.framesDuplicated();
  mixDigest(run.digest, run.dropped);
  mixDigest(run.digest, run.lost);
  mixDigest(run.digest, run.duplicated);
  return run;
}

struct PinnedHops {
  std::uint64_t seed;
  std::uint64_t deliver_digest;
  std::uint64_t lossy_digest;
};

constexpr PinnedHops kPinnedHops[] = {
    {1, 0x5406a1cb8e779ae4ULL, 0x44511533a26ec68aULL},
    {2, 0xd20fc4e086622b8dULL, 0x2853c396307d9b2fULL},
    {3, 0x5912ab68cc51bc36ULL, 0xc1e4670e86028f6bULL},
    {4, 0x8cb7b4e87e610689ULL, 0x4f2f6a68e5300836ULL},
    {5, 0x07231eb1d1a8c08bULL, 0x0a31c91b88b533bbULL},
    {6, 0xeda1de9c0ced369fULL, 0x44397be8fdb9ecceULL},
    {7, 0xac2a6b776a0bc148ULL, 0xb9c5dcbfa8c3473aULL},
    {8, 0x475e47980be88a43ULL, 0x69c69fa9e90c8534ULL},
    {9, 0x8a17eee1aac99defULL, 0x02bba1234d1cd7ccULL},
    {10, 0x474301130169dbe2ULL, 0xb0267e45b55900ccULL},
    {11, 0x17ef56132f71c0d3ULL, 0x926f68e3ca7275a6ULL},
    {12, 0xbc5e61af3cef21e5ULL, 0xbd89948472c19e4eULL},
};

TEST(FabricHopOrder, MatchesPinnedDigests) {
  for (const PinnedHops& pin : kPinnedHops) {
    SCOPED_TRACE(pin.seed);
    const HopRun deliver = runHops(pin.seed, false);
    const HopRun lossy = runHops(pin.seed, true);
    if (pin.seed >= kPressureSeeds) {
      EXPECT_GT(deliver.dropped, 0u);
    } else {
      EXPECT_EQ(deliver.dropped, 0u);
    }
    EXPECT_GT(lossy.lost, 0u);
    EXPECT_GT(lossy.duplicated, 0u);
    EXPECT_EQ(deliver.digest, pin.deliver_digest);
    EXPECT_EQ(lossy.digest, pin.lossy_digest);
  }
}

}  // namespace
}  // namespace rtdrm::net
