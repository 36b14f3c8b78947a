// Switched network fabric: multiple Ethernet segments joined by
// store-and-forward switches.
//
// Model: every host owns a dedicated full-duplex uplink to its segment's
// switch (no shared-medium arbitration); each switch forwards frames
// through per-output-port FIFO queues — one per local host (downlinks)
// and one per adjacent switch (trunks). A frame pays serialization on
// every hop plus per-link propagation and a fixed switch processing
// latency, so multi-segment paths are strictly slower than the shared
// bus's single hop. Port buffers are bounded: a frame arriving at a full
// egress port is tail-dropped, counted, and NACKed back to the upstream
// transmitter, which requeues it at its queue tail after one propagation
// delay. The NACK path is deterministic and conserving — frames are never
// destroyed, so at any instant
//
//     framesOriginated() == framesArrived() + framesInFabric()
//
// which the property suite checks against a live recount of every queue
// and in-flight transit.
//
// Routing is static: shortest path over the switch graph (BFS, lowest
// segment index breaks ties), fixed at construction. Topologies: a line
// of switches (segment i trunks to i+1) or a star (every segment trunks
// to segment 0). Hosts map onto segments in the same contiguous ceil
// blocks the management plane uses for its partitions, so a partition's
// chatter stays on its own segment by default.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/ethernet.hpp"
#include "net/message.hpp"
#include "net/network_model.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::net {

enum class FabricTopology { kLine, kStar };

const char* fabricTopologyName(FabricTopology t);
/// Returns false (leaving `out` untouched) on an unknown name.
bool parseFabricTopology(const std::string& s, FabricTopology* out);

struct SwitchedFabricConfig {
  /// Per-link wire parameters (rate, MTU, padding, frame overhead,
  /// propagation) and the host marshalling stage — identical meaning to
  /// the shared bus so the two models are comparable point for point.
  EthernetConfig link;
  /// Number of switch segments (each with its own contiguous host block).
  std::size_t segments = 2;
  FabricTopology topology = FabricTopology::kLine;
  /// Bounded per-egress-port buffer, in frames. Arrivals beyond this are
  /// tail-dropped and NACKed back upstream. NACK returns themselves are
  /// always admitted (the bound applies to forward progress admission),
  /// so the protocol cannot deadlock.
  std::size_t port_buffer_frames = 32;
  /// Store-and-forward processing latency charged per switch traversal.
  SimDuration switch_latency = SimDuration::micros(2.0);
  /// Optional explicit host->segment map (size == node_count, values <
  /// segments). Empty selects the default contiguous ceil blocks.
  std::vector<std::uint32_t> node_segment;
};

class SwitchedFabric final : public NetworkModel {
 public:
  SwitchedFabric(sim::Simulator& simulator, std::size_t node_count,
                 SwitchedFabricConfig config = {});
  SwitchedFabric(const SwitchedFabric&) = delete;
  SwitchedFabric& operator=(const SwitchedFabric&) = delete;

  const SwitchedFabricConfig& config() const { return config_; }

  void send(Message msg) override;
  void setDeliveryObserver(DeliveryObserver observer) override {
    delivery_observer_ = std::move(observer);
  }
  /// Fires once per hop at each serialization end with the transmitting
  /// port's (segment, port) coordinates — see the port numbering
  /// accessors below. Same-node hand-offs bypass the fabric and are
  /// exempt, as on the bus.
  void setFrameFateHook(FrameFateHook hook) override {
    frame_fate_hook_ = std::move(hook);
  }

  /// Cumulative busy time summed over every link (uplinks, downlinks,
  /// trunks); normalize by utilizationCapacity() for a fabric-wide
  /// utilization fraction.
  SimDuration busyTime() const override;
  double utilizationCapacity() const override {
    return static_cast<double>(links_.size());
  }
  std::uint64_t messagesDelivered() const override { return delivered_; }
  /// Hop transmissions started (retransmissions and duplicate copies
  /// included) — the fabric analogue of the bus's frame count.
  std::uint64_t framesOnWire() const override { return frames_; }
  std::uint64_t framesLost() const override { return frames_lost_; }
  std::uint64_t framesDuplicated() const override {
    return frames_duplicated_;
  }
  /// Tail-drop events at full egress ports (each NACKed and retried; a
  /// drop delays a frame, it never destroys one).
  std::uint64_t framesDropped() const override { return frames_dropped_; }
  double payloadBytesCarried() const override { return payload_bytes_; }
  double payloadBytesFrom(ProcessorId nic) const override;
  /// Messages marshalled into the fabric and not yet fully delivered.
  std::size_t backloggedMessages() const override { return msgs_in_fabric_; }

  void exportMetrics(obs::MetricsRegistry& reg) const override;

  // --- conservation accounting (property-test surface) ---
  /// Payload frames chunked into the fabric so far.
  std::uint64_t framesOriginated() const { return frames_originated_; }
  /// Payload frames that reached their destination host.
  std::uint64_t framesArrived() const { return frames_arrived_; }
  /// Live recount of every payload frame currently inside the fabric:
  /// queued at any port plus in transit (propagation, switch processing,
  /// or NACK return). Conservation demands this equal
  /// framesOriginated() - framesArrived() at every instant.
  std::size_t framesInFabric() const;

  // --- topology introspection (tests, fault targeting, CLIs) ---
  std::size_t segmentCount() const { return config_.segments; }
  std::size_t linkCount() const { return links_.size(); }
  std::uint32_t segmentOf(ProcessorId node) const;
  /// Port numbering within segment `s` with L local hosts and T trunk
  /// neighbours: downlinks are ports 0..L-1 (one per local host, in host
  /// order), trunks L..L+T-1 (adjacent segments in ascending order), and
  /// host uplinks report nominal ports L+T..L+T+L-1 so link faults can
  /// target a single host's transmit path.
  std::uint32_t downlinkPort(ProcessorId host) const;
  std::uint32_t trunkPort(std::uint32_t segment,
                          std::uint32_t to_segment) const;
  std::uint32_t uplinkPort(ProcessorId host) const;
  /// Next segment on the static route from `from` towards `to`.
  std::uint32_t nextHop(std::uint32_t from, std::uint32_t to) const;

 private:
  /// Shared per-message state; frames hold a reference so the last
  /// arrival can assemble the receipt.
  struct MessageState {
    Message msg;
    SimTime enqueued;
    SimTime first_bit;
    std::size_t frames_total = 0;
    std::size_t frames_arrived = 0;
    bool started = false;
  };
  struct Frame {
    std::shared_ptr<MessageState> state;
    Bytes chunk;
    /// Payload accounted on the first successful uplink traversal only
    /// (NACK retries must not double-count).
    bool counted = false;
  };
  enum class LinkKind { kUplink, kDownlink, kTrunk };
  struct Link {
    LinkKind kind;
    /// Coordinates reported to the frame-fate hook.
    std::uint32_t segment = 0;
    std::uint32_t port = 0;
    /// Destination: host id (uplink => its switch; downlink => the host)
    /// or segment id (trunk).
    std::uint32_t to = 0;
    std::size_t capacity = 0;  // 0 = unbounded (host uplinks)
    std::deque<Frame> q;
    bool busy = false;
    SimTime busy_since = SimTime::zero();
  };

  void pump(std::size_t li);
  void onTxEnd(std::size_t li);
  void onDuplicateEnd(std::size_t li);
  /// Frame handed to the switch at the far end of `from_link` (after
  /// propagation and switch latency); routes it to the next egress port
  /// or tail-drops. The closure carries no segment, so with the frame it
  /// fits sim::EventFn's inline buffer: no heap allocation per hop.
  void onSwitchIngress(std::size_t from_link, Frame f);
  void onHostArrival(Frame f);
  std::size_t routeEgress(std::uint32_t seg, ProcessorId dst) const;

  sim::Simulator& sim_;
  SwitchedFabricConfig config_;
  FrameTimer frame_timer_;
  std::vector<std::uint32_t> seg_of_host_;
  std::vector<std::vector<ProcessorId>> hosts_of_seg_;
  std::vector<Link> links_;
  std::vector<std::size_t> uplink_of_host_;
  std::vector<std::size_t> downlink_of_host_;
  /// [segment] -> adjacent segments, ascending (trunk port order).
  std::vector<std::vector<std::uint32_t>> neighbors_;
  /// [from][to] -> next segment on the static shortest path.
  std::vector<std::vector<std::uint32_t>> next_hop_;
  /// [from][neighbor order] -> trunk link index.
  std::vector<std::vector<std::size_t>> trunk_link_;
  std::vector<SimTime> marshal_busy_until_;
  /// Frames in transit between queues (propagation / switch processing /
  /// NACK return) — part of the framesInFabric() recount.
  std::size_t transit_frames_ = 0;
  SimDuration busy_accum_ = SimDuration::zero();
  std::uint64_t delivered_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_originated_ = 0;
  std::uint64_t frames_arrived_ = 0;
  std::size_t msgs_in_fabric_ = 0;
  double payload_bytes_ = 0.0;
  std::vector<double> payload_bytes_from_;
  DeliveryObserver delivery_observer_;
  FrameFateHook frame_fate_hook_;
};

}  // namespace rtdrm::net
