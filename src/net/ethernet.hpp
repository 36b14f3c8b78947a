// Shared-medium Ethernet segment (IEEE 802.3 style, Table 1: 100 Mbps).
//
// Model: each node owns a FIFO NIC queue; a single bus serializes one frame
// at a time, picking among backlogged NICs round-robin at frame granularity
// (an idealization of CSMA/CD fairness on an unsaturated segment — no
// collisions are simulated, but frame overheads and inter-frame gaps are
// charged, so wire time per payload byte is realistic).
//
// Messages larger than one MTU are fragmented; a message is delivered when
// its last frame arrives. The paper's buffer delay Dbuf (eq. 5) *emerges*
// here as the head-of-line wait behind other periods' traffic, and its
// transmission delay Dtrans (eq. 6) as the serialization time.
//
// Frame trains skip the calendar: when a frame ends and the next one's end
// is the next event due, onFrameEnd advances the clock in place
// (sim::Simulator::advanceTo) instead of scheduling it. The schedule of
// fired events, receipts and counters is the same as with one calendar
// event per frame; only sim.events_scheduled drops.
//
// Arbitration is O(1) per frame. A backlog set keeps one bit per NIC, set
// while its queue is non-empty (set when a marshalled message is queued,
// cleared when the last one is popped). The next grant is the first set
// bit at or after the round-robin pointer, wrapping once: a count of
// trailing zeros per 64-bit word. That is the NIC the plain scan
// rr, rr+1, ..., n-1, 0, ..., rr-1 would stop at, since it skips exactly
// the empty queues, so every grant is unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/message.hpp"
#include "net/network_model.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::net {

struct EthernetConfig {
  BitRate rate = BitRate::mbps(100.0);
  /// Maximum payload per frame.
  Bytes mtu = Bytes::of(1500.0);
  /// Minimum payload per frame (Ethernet pads short frames to 46 B).
  Bytes min_payload = Bytes::of(46.0);
  /// Per-frame non-payload wire bytes: preamble+SFD (8) + MAC header (14) +
  /// FCS (4) + inter-frame gap (12).
  Bytes frame_overhead = Bytes::of(38.0);
  /// One-way propagation delay applied after the last bit.
  SimDuration propagation = SimDuration::micros(5.0);
  /// Host-side protocol/marshalling cost per payload byte, charged in a
  /// per-NIC sequential stage *before* the frame becomes wire-eligible.
  /// This is the physical origin of the paper's buffer delay Dbuf (eq. 5):
  /// "how long data stays in host and network buffers before getting
  /// transmitted". 87.5 ns/B over 80 B tracks gives ~0.7 ms per hundred
  /// tracks — the slope the paper measured (Table 3).
  double host_ns_per_byte = 87.5;

  /// Aborts on a non-positive rate or MTU, or on a negative padding,
  /// frame overhead, propagation or marshalling cost.
  void validate() const;
};

/// Wire time of one frame on a link: the payload chunk is padded to
/// `min_payload` and `frame_overhead` is added. Full-MTU frames, the bulk
/// of every long message, reuse one value computed at construction by the
/// same expression, so it is bit-identical and costs no division.
class FrameTimer {
 public:
  explicit FrameTimer(const EthernetConfig& config)
      : rate_(config.rate),
        mtu_(config.mtu),
        min_payload_(config.min_payload),
        overhead_(config.frame_overhead),
        full_(padded(config.mtu)) {}

  /// Wire time of a frame carrying `chunk` (at most one MTU) of payload.
  SimDuration operator()(Bytes chunk) const {
    return isFull(chunk) ? full_ : padded(chunk);
  }
  /// True when `chunk` fills a frame, whose wire time is fullFrameTime().
  bool isFull(Bytes chunk) const { return chunk >= mtu_; }
  SimDuration fullFrameTime() const { return full_; }

 private:
  SimDuration padded(Bytes chunk) const {
    return rate_.transmissionTime(std::max(chunk, min_payload_) + overhead_);
  }

  BitRate rate_;
  Bytes mtu_;
  Bytes min_payload_;
  Bytes overhead_;
  SimDuration full_;
};

class Ethernet final : public NetworkModel {
 public:
  Ethernet(sim::Simulator& simulator, std::size_t node_count,
           EthernetConfig config = {});
  Ethernet(const Ethernet&) = delete;
  Ethernet& operator=(const Ethernet&) = delete;

  const EthernetConfig& config() const { return config_; }

  /// Enqueue a message at its source NIC. Local delivery (src == dst)
  /// bypasses the wire and completes after `propagation` only.
  void send(Message msg) override;

  /// Observer invoked with every delivery receipt, at the receipt's
  /// `delivered` time — after the propagation delay, never before
  /// (correctness oracles verify causality here: enqueued <= first_bit <=
  /// delivered == now). Pass nullptr to clear.
  void setDeliveryObserver(DeliveryObserver observer) override {
    delivery_observer_ = std::move(observer);
  }

  /// Frame fates (see net::FrameFate). Kept as a member alias so
  /// pre-interface spellings (`Ethernet::FrameFate::kLose`) stay valid.
  using FrameFate = net::FrameFate;

  /// Per-frame fate decision for wire frames. The bus is a single link, so
  /// every frame is exactly one hop: the hook fires once per frame with
  /// segment 0, port 0. Same-node hand-offs never touch the wire and are
  /// exempt. With no hook installed every frame delivers, at zero added
  /// cost. Pass nullptr to clear.
  void setFrameFateHook(FrameFateHook hook) override {
    frame_fate_hook_ = std::move(hook);
  }

  /// Cumulative wire-busy time (for utilization accounting).
  SimDuration busyTime() const override;
  std::uint64_t messagesDelivered() const override { return delivered_; }
  std::uint64_t framesOnWire() const override { return frames_; }
  /// Frames whose wire time was spent but whose payload the receiver
  /// rejected (each forced a retransmission).
  std::uint64_t framesLost() const override { return frames_lost_; }
  /// Spurious extra copies that occupied the wire and were discarded.
  std::uint64_t framesDuplicated() const override {
    return frames_duplicated_;
  }
  double payloadBytesCarried() const override { return payload_bytes_; }
  /// Payload bytes this NIC has put on the wire so far (per-sender
  /// attribution for hot-talker diagnosis).
  double payloadBytesFrom(ProcessorId nic) const override;
  std::size_t backloggedMessages() const override;

  /// Publishes bus counters (frames, losses, dups, delivered messages,
  /// payload bytes, wire utilization since t=0) into `reg` under "net.".
  void exportMetrics(obs::MetricsRegistry& reg) const override;

 private:
  struct Pending {
    Message msg;
    SimTime enqueued;
    SimTime first_bit;
    Bytes remaining;
    bool started = false;
  };

  /// startFrame()'s "no frame started": the bus is busy or every NIC
  /// queue is empty.
  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  static constexpr std::size_t kWordBits = 64;

  /// Begin serializing the next frame if the bus is idle and work exists,
  /// and schedule its end.
  void arbitrate();
  /// Puts the next frame on the wire if the bus is idle and work exists;
  /// returns its NIC, or kIdle. The caller owns the frame-end event.
  std::size_t startFrame();
  /// First backlogged NIC at or after rr_next_, wrapping once; kIdle if
  /// every queue is empty.
  std::size_t nextBacklogged() const;
  /// Frame-end event: finishes the frame and runs the train that follows.
  void onFrameEnd(std::size_t nic);
  /// Applies the fate of the frame that just ended on `nic`.
  void finishFrame(std::size_t nic);
  /// A duplicated frame's copy finished its (pure-accounting) wire time.
  void onDuplicateEnd();
  /// Wire time of the next frame of `p` (overhead + clamped payload chunk).
  SimDuration frameTime(const Pending& p) const;
  Bytes frameChunk(const Pending& p) const;
  void setBacklogged(std::size_t nic, bool on);

  /// Marshalling completed: move the message into the NIC wire queue.
  void onMarshalled(std::size_t nic, Pending p);

  sim::Simulator& sim_;
  EthernetConfig config_;
  FrameTimer frame_timer_;
  std::vector<std::deque<Pending>> nics_;
  /// Bit `nic % 64` of word `nic / 64` is set iff nics_[nic] is non-empty.
  std::vector<std::uint64_t> backlog_;
  /// Per-NIC watermark: host marshalling stage is busy until this time.
  std::vector<SimTime> marshal_busy_until_;
  std::size_t rr_next_ = 0;   // round-robin arbitration pointer
  bool bus_busy_ = false;
  SimTime busy_since_ = SimTime::zero();
  SimDuration busy_accum_ = SimDuration::zero();
  std::uint64_t delivered_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  double payload_bytes_ = 0.0;
  std::vector<double> payload_bytes_from_;
  DeliveryObserver delivery_observer_;
  FrameFateHook frame_fate_hook_;
};

/// Windowed utilization sampling for any network model, mirroring
/// node::UtilizationProbe. Busy time is normalized by the model's
/// utilizationCapacity() — 1.0 for the bus (bit-identical to the
/// pre-interface probe), the link count for multi-link fabrics.
class NetworkProbe {
 public:
  NetworkProbe(const sim::Simulator& simulator, const NetworkModel& net)
      : sim_(simulator), net_(net), last_t_(simulator.now()),
        last_busy_(net.busyTime()) {}

  Utilization sample();
  Utilization peek() const;

 private:
  const sim::Simulator& sim_;
  const NetworkModel& net_;
  SimTime last_t_;
  SimDuration last_busy_;
};

}  // namespace rtdrm::net
