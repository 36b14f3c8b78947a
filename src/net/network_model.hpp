// Pluggable network substrate: the interface every network model serves.
//
// Extracted from net::Ethernet so the testbed can swap the paper's shared
// 100 Mbps bus for other fabrics (net::SwitchedFabric) without touching the
// consumers: the task runtime, the failure detector, the management plane,
// the fault injector and the invariant oracle all program against this
// interface. Two seams matter to the rest of the system:
//
//   * send()/broadcast()      — message transport with delivery receipts;
//   * the frame-fate hook     — the fault injector's per-link loss/dup
//                               decision point, generalized to a FrameHop
//                               so faults can target (segment, port) on
//                               multi-hop fabrics (the bus is one hop).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "net/message.hpp"

namespace rtdrm::obs {
class MetricsRegistry;
}  // namespace rtdrm::obs

namespace rtdrm::net {

/// Fate of a wire frame, decided by the fault-injection hook the instant
/// its last bit is serialized on a link. kLose spends the wire time but the
/// receiver rejects the frame (bad FCS): the payload chunk is not applied
/// and the frame is retransmitted by the link layer. kDuplicate delivers
/// the chunk normally, then a spurious copy occupies the link for a second
/// frame time; the receiver discards it, so delivery accounting sees
/// exactly one receipt either way.
enum class FrameFate { kDeliver, kLose, kDuplicate };

/// Wildcard for FrameHop segment/port matching (fault targeting).
inline constexpr std::uint32_t kAnySegment = 0xffffffffu;
inline constexpr std::uint32_t kAnyPort = 0xffffffffu;

/// The link a frame is traversing when its fate is decided: the message
/// endpoints plus the (segment, port) identity of the transmitting port.
/// The shared bus is a single link — every frame reports segment 0, port 0
/// — so hooks written against the bus see exactly the draws they always
/// did. Switched fabrics fire the hook once per hop with the egress port's
/// coordinates (see net::SwitchedFabric for the numbering scheme).
struct FrameHop {
  ProcessorId src{0};        ///< message source node
  ProcessorId dst{0};        ///< message destination node
  std::uint32_t segment = 0; ///< segment owning the transmitting port
  std::uint32_t port = 0;    ///< egress-port index within the segment
};

/// Abstract network substrate. Implementations must be fully deterministic
/// (a pure function of the event schedule) and must deliver every accepted
/// message exactly once, in causal order per receipt: enqueued <= first_bit
/// <= delivered == observer-invocation time.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Enqueue a message at its source. Local delivery (src == dst) bypasses
  /// the wire entirely (and is exempt from frame fates).
  virtual void send(Message msg) = 0;

  /// Clone-send `proto` to every destination in `dsts` (the per-message
  /// completion callback is shared). Point-to-point under the hood on both
  /// the bus and the fabric; a true L2 broadcast would bypass the per-port
  /// queueing this repo exists to model.
  virtual void broadcast(const Message& proto,
                         const std::vector<ProcessorId>& dsts) {
    for (const ProcessorId dst : dsts) {
      Message m;
      m.src = proto.src;
      m.dst = dst;
      m.payload = proto.payload;
      m.tag = proto.tag;
      m.on_delivered = proto.on_delivered;
      send(std::move(m));
    }
  }

  /// Observer invoked with every delivery receipt, at the receipt's
  /// `delivered` time. Pass nullptr to clear. Single slot.
  using DeliveryObserver = std::function<void(const MessageReceipt&)>;
  virtual void setDeliveryObserver(DeliveryObserver observer) = 0;

  /// Per-frame fate decision for wire frames, fired once per link hop.
  /// Same-node hand-offs never touch a wire and are exempt. With no hook
  /// installed every frame delivers, at zero added cost. Pass nullptr to
  /// clear.
  using FrameFateHook = std::function<FrameFate(const FrameHop&)>;
  virtual void setFrameFateHook(FrameFateHook hook) = 0;

  // ---- counters (uniform across models; a model without a concept
  // reports 0 for it) ------------------------------------------------------
  /// Cumulative link-busy time, summed over every link the model owns (the
  /// bus is one link). Divide by utilizationCapacity() for a [0, 1] rate.
  virtual SimDuration busyTime() const = 0;
  /// Unidirectional links contributing to busyTime() (1 for the bus).
  virtual double utilizationCapacity() const { return 1.0; }
  virtual std::uint64_t messagesDelivered() const = 0;
  virtual std::uint64_t framesOnWire() const = 0;
  virtual std::uint64_t framesLost() const = 0;
  virtual std::uint64_t framesDuplicated() const = 0;
  /// Frames tail-dropped at a full port buffer (switched fabrics only).
  virtual std::uint64_t framesDropped() const { return 0; }
  virtual double payloadBytesCarried() const = 0;
  /// Payload bytes node `nic` has put on the wire so far.
  virtual double payloadBytesFrom(ProcessorId nic) const = 0;
  virtual std::size_t backloggedMessages() const = 0;

  /// Publishes the model's counters into `reg` under "net.".
  virtual void exportMetrics(obs::MetricsRegistry& reg) const = 0;
};

/// Which network model a scenario builds.
enum class NetKind { kBus, kSwitched };

inline const char* netKindName(NetKind kind) {
  return kind == NetKind::kBus ? "bus" : "switched";
}

/// Parses "bus" | "switched". Returns false on anything else.
inline bool parseNetKind(const std::string& s, NetKind* out) {
  if (s == "bus") {
    *out = NetKind::kBus;
    return true;
  }
  if (s == "switched") {
    *out = NetKind::kSwitched;
    return true;
  }
  return false;
}

}  // namespace rtdrm::net
