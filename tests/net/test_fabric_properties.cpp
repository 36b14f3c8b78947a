// Property suite for the switched network fabric: for arbitrary traffic,
// frame conservation holds at every probed instant (originated == arrived
// + live in-fabric recount), per-(src,dst) delivery keeps FIFO order on
// drop-free runs, every cross-node delivery respects the store-and-forward
// latency lower bound (which strictly dominates the shared bus's single
// hop), bounded ports tail-drop-and-NACK without ever destroying a frame,
// and (segment, port) link-fault targeting hits exactly the targeted
// uplink. Bus-vs-fabric digest neutrality is pinned separately in the fuzz
// determinism suite.
#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "node/cluster.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::net {
namespace {

SwitchedFabricConfig fastLinks() {
  SwitchedFabricConfig cfg;
  cfg.link.host_ns_per_byte = 0.0;  // isolate the wire model
  return cfg;
}

class FabricRandomTraffic : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FabricRandomTraffic, ConservationFifoAndLatencyBound) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  sim::Simulator sim;
  SwitchedFabricConfig cfg = fastLinks();
  cfg.segments = 2 + static_cast<std::size_t>(seed % 3);  // 2..4
  cfg.topology =
      seed % 2 == 0 ? FabricTopology::kLine : FabricTopology::kStar;
  // FIFO ordering is only promised drop-free; make the buffers deep enough
  // that this traffic level never drops (checked below).
  cfg.port_buffer_frames = 4096;
  const std::size_t nodes = 8;
  SwitchedFabric net(sim, nodes, cfg);

  // The shortest cross-node path is uplink + downlink: two serializations
  // of the shortest legal frame, two propagations and one switch traversal.
  const double min_frame_ms =
      cfg.link.rate
          .transmissionTime(cfg.link.min_payload + cfg.link.frame_overhead)
          .ms();
  const double min_path_ms =
      2.0 * (min_frame_ms + cfg.link.propagation.ms()) +
      cfg.switch_latency.ms();

  const int n_messages = 80;
  int delivered = 0;
  double expected_payload = 0.0;
  std::map<std::pair<int, int>, std::vector<int>> send_order;
  std::map<std::pair<int, int>, std::vector<int>> recv_order;

  for (int i = 0; i < n_messages; ++i) {
    const double at = rng.uniform(0.0, 40.0);
    const int src = static_cast<int>(rng.uniformInt(0, nodes - 1));
    int dst = static_cast<int>(rng.uniformInt(0, nodes - 2));
    if (dst >= src) {
      ++dst;  // distinct destination: always through the fabric
    }
    const double payload = rng.uniform(0.0, 6000.0);
    expected_payload += payload;
    sim.scheduleAt(SimTime::millis(at), [&, i, src, dst, payload] {
      send_order[{src, dst}].push_back(i);
      net.send(Message{ProcessorId{static_cast<std::uint32_t>(src)},
                       ProcessorId{static_cast<std::uint32_t>(dst)},
                       Bytes::of(payload), "m",
                       [&, i, src, dst, payload](const MessageReceipt& r) {
                         ++delivered;
                         recv_order[{src, dst}].push_back(i);
                         EXPECT_NEAR(r.payload.count(), payload, 1e-9);
                         EXPECT_GE(r.first_bit.ms(), r.enqueued.ms());
                         // Store-and-forward: no cross-node message beats
                         // the fabric-wide shortest-path bound.
                         EXPECT_GE(r.transferDelay().ms(),
                                   min_path_ms - 1e-9);
                       }});
    });
  }

  // Conservation is an any-instant invariant, not an end-of-run one: probe
  // it while frames are queued, propagating, and switching.
  for (int t = 1; t <= 60; ++t) {
    sim.scheduleAt(SimTime::millis(static_cast<double>(t) * 0.8), [&] {
      EXPECT_EQ(net.framesOriginated(),
                net.framesArrived() + net.framesInFabric());
    });
  }
  sim.runAll();

  EXPECT_EQ(delivered, n_messages);
  EXPECT_EQ(net.backloggedMessages(), 0u);
  EXPECT_EQ(net.framesDropped(), 0u) << "raise port_buffer_frames";
  EXPECT_EQ(net.framesInFabric(), 0u);
  EXPECT_EQ(net.framesOriginated(), net.framesArrived());
  EXPECT_NEAR(net.payloadBytesCarried(), expected_payload, 1e-6);
  for (const auto& [pair, order] : recv_order) {
    EXPECT_EQ(order, send_order[pair])
        << "src " << pair.first << " -> dst " << pair.second;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricRandomTraffic,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(FabricTailDrop, BoundedPortsDropNackAndStillConserve) {
  // Seven senders converge on one destination downlink with a two-frame
  // port buffer: drops are certain, yet the NACK-return path must keep
  // every frame alive — conservation at every probe, total delivery, and
  // an empty fabric at the end.
  sim::Simulator sim;
  SwitchedFabricConfig cfg = fastLinks();
  cfg.segments = 2;
  cfg.port_buffer_frames = 2;
  const std::size_t nodes = 8;
  SwitchedFabric net(sim, nodes, cfg);

  int delivered = 0;
  const int n_messages = 60;
  for (int i = 0; i < n_messages; ++i) {
    net.send(Message{ProcessorId{static_cast<std::uint32_t>(i % 7)},
                     ProcessorId{7}, Bytes::of(6000.0), "burst",
                     [&](const MessageReceipt&) { ++delivered; }});
  }
  for (int t = 1; t <= 100; ++t) {
    sim.scheduleAt(SimTime::millis(static_cast<double>(t) * 0.5), [&] {
      EXPECT_EQ(net.framesOriginated(),
                net.framesArrived() + net.framesInFabric());
    });
  }
  sim.runAll();

  EXPECT_GT(net.framesDropped(), 0u);
  EXPECT_EQ(delivered, n_messages);
  EXPECT_EQ(net.backloggedMessages(), 0u);
  EXPECT_EQ(net.framesInFabric(), 0u);
  EXPECT_EQ(net.framesOriginated(), net.framesArrived());
}

TEST(FabricRouting, LineAndStarNextHopsAndCeilSegmentBlocks) {
  sim::Simulator sim;
  {
    SwitchedFabricConfig cfg = fastLinks();
    cfg.segments = 4;
    cfg.topology = FabricTopology::kLine;
    SwitchedFabric line(sim, 8, cfg);
    EXPECT_EQ(line.nextHop(0, 3), 1u);
    EXPECT_EQ(line.nextHop(1, 3), 2u);
    EXPECT_EQ(line.nextHop(3, 0), 2u);
  }
  {
    SwitchedFabricConfig cfg = fastLinks();
    cfg.segments = 4;
    cfg.topology = FabricTopology::kStar;
    SwitchedFabric star(sim, 8, cfg);
    EXPECT_EQ(star.nextHop(1, 2), 0u);  // leaf -> hub
    EXPECT_EQ(star.nextHop(0, 2), 2u);  // hub -> leaf, direct
    EXPECT_EQ(star.nextHop(3, 1), 0u);
  }
  {
    // Default host->segment assignment: the same contiguous ceil blocks
    // the management plane partitions nodes into.
    SwitchedFabricConfig cfg = fastLinks();
    cfg.segments = 4;
    const std::size_t nodes = 6;
    SwitchedFabric fab(sim, nodes, cfg);
    for (std::uint32_t node = 0; node < nodes; ++node) {
      std::uint32_t expected = 0;
      for (std::uint32_t s = 0; s < 4; ++s) {
        const std::size_t lo = (s * nodes + 3) / 4;
        const std::size_t hi = ((s + 1) * nodes + 3) / 4;
        if (node >= lo && node < hi) {
          expected = s;
        }
      }
      EXPECT_EQ(fab.segmentOf(ProcessorId{node}), expected)
          << "node " << node;
    }
  }
}

struct LinkFaultRun {
  double seg0_done = -1.0;  ///< node0 -> node1 delivery time, ms
  double seg1_done = -1.0;  ///< node2 -> node3 delivery time, ms
  std::uint64_t lost = 0;
};

/// Two single-segment flows (node0 -> node1 on seg0, node2 -> node3 on
/// seg1) under an optional one-entry link-fault plan.
LinkFaultRun runLinkFaultCase(const std::vector<fault::LinkFault>& links) {
  sim::Simulator sim;
  node::Cluster cluster(sim, 4);
  SwitchedFabricConfig cfg = fastLinks();
  cfg.segments = 2;  // seg0 = {0, 1}, seg1 = {2, 3}
  SwitchedFabric net(sim, 4, cfg);
  std::unique_ptr<fault::FaultInjector> injector;
  if (!links.empty()) {
    fault::FaultPlan plan;
    plan.links = links;
    injector = std::make_unique<fault::FaultInjector>(sim, cluster, &net,
                                                      nullptr,
                                                      std::move(plan));
    injector->arm();
  }
  LinkFaultRun out;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(8000.0), "s0",
                   [&](const MessageReceipt& r) {
                     out.seg0_done = r.delivered.ms();
                   }});
  net.send(Message{ProcessorId{2}, ProcessorId{3}, Bytes::of(8000.0), "s1",
                   [&](const MessageReceipt& r) {
                     out.seg1_done = r.delivered.ms();
                   }});
  sim.runAll();
  out.lost = net.framesLost();
  return out;
}

TEST(FabricLinkFaults, SegmentPortTargetingHitsOnlyTheTargetedUplink) {
  // Regression for (segment, port) fault targeting under --net switched.
  // Port coordinates from a probe fabric with the identical shape.
  sim::Simulator probe_sim;
  SwitchedFabricConfig cfg = fastLinks();
  cfg.segments = 2;
  SwitchedFabric probe(probe_sim, 4, cfg);
  ASSERT_EQ(probe.segmentOf(ProcessorId{0}), 0u);
  ASSERT_EQ(probe.segmentOf(ProcessorId{2}), 1u);
  // Same within-segment port number for both segments' first uplink: the
  // segment coordinate is what disambiguates them.
  ASSERT_EQ(probe.uplinkPort(ProcessorId{0}),
            probe.uplinkPort(ProcessorId{2}));

  const LinkFaultRun base = runLinkFaultCase({});
  // Loss window pinned to node 0's uplink: only the seg0 flow pays
  // retransmissions; the seg1 flow is byte-identical to the no-fault run.
  const LinkFaultRun hit = runLinkFaultCase({fault::LinkFault{
      fault::kAnyNode, fault::kAnyNode, SimTime::zero(),
      SimTime::millis(40.0), 0.9, 0.0, 0,
      probe.uplinkPort(ProcessorId{0})}});
  EXPECT_GT(hit.lost, 0u);
  EXPECT_GT(hit.seg0_done, base.seg0_done);
  EXPECT_DOUBLE_EQ(hit.seg1_done, base.seg1_done);

  // Same window on a port carrying no traffic (node 1 transmits nothing):
  // nothing is lost and both flows match the no-fault run exactly.
  const LinkFaultRun miss = runLinkFaultCase({fault::LinkFault{
      fault::kAnyNode, fault::kAnyNode, SimTime::zero(),
      SimTime::millis(40.0), 0.9, 0.0, 0,
      probe.uplinkPort(ProcessorId{1})}});
  EXPECT_EQ(miss.lost, 0u);
  EXPECT_DOUBLE_EQ(miss.seg0_done, base.seg0_done);
  EXPECT_DOUBLE_EQ(miss.seg1_done, base.seg1_done);
}

TEST(FabricLinkFaults, SegmentWildcardPortCoversTheWholeSegment) {
  // segment set + port kAnyPort: every hop inside that segment is in
  // scope, other segments untouched.
  const LinkFaultRun base = runLinkFaultCase({});
  const LinkFaultRun wild = runLinkFaultCase({fault::LinkFault{
      fault::kAnyNode, fault::kAnyNode, SimTime::zero(),
      SimTime::millis(40.0), 0.9, 0.0, 1, kAnyPort}});
  EXPECT_GT(wild.lost, 0u);
  EXPECT_GT(wild.seg1_done, base.seg1_done);
  EXPECT_DOUBLE_EQ(wild.seg0_done, base.seg0_done);
}

TEST(FabricFateHook, FiresPerHopWithPortCoordinates) {
  // A two-segment path crosses uplink, trunk, and downlink: the hook must
  // see each hop once with the transmitting port's coordinates.
  sim::Simulator sim;
  SwitchedFabricConfig cfg = fastLinks();
  cfg.segments = 2;
  SwitchedFabric net(sim, 4, cfg);
  std::vector<FrameHop> hops;
  net.setFrameFateHook([&](const FrameHop& hop) {
    hops.push_back(hop);
    return FrameFate::kDeliver;
  });
  int delivered = 0;
  net.send(Message{ProcessorId{0}, ProcessorId{3}, Bytes::of(100.0), "x",
                   [&](const MessageReceipt&) { ++delivered; }});
  sim.runAll();
  net.setFrameFateHook(nullptr);

  EXPECT_EQ(delivered, 1);
  ASSERT_EQ(hops.size(), 3u);  // uplink, trunk, downlink
  EXPECT_EQ(hops[0].segment, 0u);
  EXPECT_EQ(hops[0].port, net.uplinkPort(ProcessorId{0}));
  EXPECT_EQ(hops[1].segment, 0u);
  EXPECT_EQ(hops[1].port, net.trunkPort(0, 1));
  EXPECT_EQ(hops[2].segment, 1u);
  EXPECT_EQ(hops[2].port, net.downlinkPort(ProcessorId{3}));
  for (const FrameHop& h : hops) {
    EXPECT_EQ(h.src, ProcessorId{0});
    EXPECT_EQ(h.dst, ProcessorId{3});
  }
}

}  // namespace
}  // namespace rtdrm::net
