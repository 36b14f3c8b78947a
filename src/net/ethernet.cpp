#include "net/ethernet.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::net {

Ethernet::Ethernet(sim::Simulator& simulator, std::size_t node_count,
                   EthernetConfig config)
    : sim_(simulator),
      config_(config),
      nics_(node_count),
      marshal_busy_until_(node_count, SimTime::zero()),
      payload_bytes_from_(node_count, 0.0) {
  RTDRM_ASSERT(node_count > 0);
  RTDRM_ASSERT(config_.mtu > Bytes::zero());
  RTDRM_ASSERT(config_.rate.bitsPerSecond() > 0.0);
  RTDRM_ASSERT(config_.host_ns_per_byte >= 0.0);
}

void Ethernet::send(Message msg) {
  RTDRM_ASSERT(msg.src.value < nics_.size());
  RTDRM_ASSERT(msg.dst.value < nics_.size());
  RTDRM_ASSERT(msg.payload >= Bytes::zero());

  if (msg.src == msg.dst) {
    // Same-node delivery: shared memory hand-off, no wire involvement and
    // no marshalling stage (the payload never crosses the protocol stack).
    // Faults never touch this path either — it has no frames to lose.
    const MessageReceipt receipt{sim_.now(), sim_.now(),
                                 sim_.now() + config_.propagation,
                                 msg.payload};
    auto cb = std::move(msg.on_delivered);
    sim_.scheduleAfter(config_.propagation,
                       [this, cb = std::move(cb), receipt] {
      ++delivered_;
      if (delivery_observer_) {
        delivery_observer_(receipt);
      }
      if (cb) {
        cb(receipt);
      }
    });
    return;
  }

  Pending p{std::move(msg), sim_.now(), sim_.now(), Bytes::zero(), false};
  p.remaining = p.msg.payload;
  const std::size_t nic = p.msg.src.value;

  // Host marshalling stage (sequential per NIC): the message becomes
  // wire-eligible only after the protocol stack has processed its bytes.
  const SimDuration marshal = SimDuration::millis(
      config_.host_ns_per_byte * p.msg.payload.count() * 1e-6);
  const SimTime start =
      std::max(sim_.now(), marshal_busy_until_[nic]);
  const SimTime done = start + marshal;
  marshal_busy_until_[nic] = done;
  if (done <= sim_.now()) {
    onMarshalled(nic, std::move(p));
  } else {
    sim_.scheduleAt(done, [this, nic, p = std::move(p)]() mutable {
      onMarshalled(nic, std::move(p));
    });
  }
}

void Ethernet::onMarshalled(std::size_t nic, Pending p) {
  nics_[nic].push_back(std::move(p));
  arbitrate();
}

Bytes Ethernet::frameChunk(const Pending& p) const {
  return std::min(config_.mtu, std::max(p.remaining, Bytes::zero()));
}

SimDuration Ethernet::frameTime(const Pending& p) const {
  // Short payloads are padded to the Ethernet minimum on the wire.
  const Bytes chunk = std::max(frameChunk(p), config_.min_payload);
  return config_.rate.transmissionTime(chunk + config_.frame_overhead);
}

void Ethernet::arbitrate() {
  const std::size_t nic = startFrame();
  if (nic != kIdle) {
    const SimTime end = sim_.now() + frameTime(nics_[nic].front());
    sim_.scheduleAt(end, [this, nic] { onFrameEnd(nic); });
  }
}

std::size_t Ethernet::startFrame() {
  if (bus_busy_) {
    return kIdle;
  }
  // Round-robin scan for a backlogged NIC, starting after the last served.
  const std::size_t n = nics_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t nic = (rr_next_ + k) % n;
    if (nics_[nic].empty()) {
      continue;
    }
    Pending& p = nics_[nic].front();
    if (!p.started) {
      p.started = true;
      p.first_bit = sim_.now();
    }
    bus_busy_ = true;
    busy_since_ = sim_.now();
    rr_next_ = (nic + 1) % n;
    ++frames_;
    return nic;
  }
  return kIdle;
}

void Ethernet::onFrameEnd(std::size_t nic) {
  // Frame train: while the next frame's end is the next event the
  // calendar would fire, advance the clock to it in place instead of a
  // heap push and pop per frame. Iterative, so a long train never grows
  // the stack; this callback is the only caller, so the advance is always
  // in tail position.
  for (;;) {
    finishFrame(nic);
    nic = startFrame();
    if (nic == kIdle) {
      return;
    }
    const SimTime end = sim_.now() + frameTime(nics_[nic].front());
    if (!sim_.advanceTo(end)) {
      sim_.scheduleAt(end, [this, nic] { onFrameEnd(nic); });
      return;
    }
  }
}

void Ethernet::finishFrame(std::size_t nic) {
  RTDRM_ASSERT(bus_busy_ && !nics_[nic].empty());
  busy_accum_ += sim_.now() - busy_since_;
  bus_busy_ = false;

  Pending& p = nics_[nic].front();
  // The bus is one link: every frame is one hop on (segment 0, port 0).
  const FrameFate fate =
      frame_fate_hook_
          ? frame_fate_hook_(FrameHop{p.msg.src, p.msg.dst, 0, 0})
          : FrameFate::kDeliver;
  if (fate == FrameFate::kLose) {
    // The wire time is spent but the receiver rejects the frame (bad FCS).
    // The chunk was never applied and the message stays at the head of its
    // NIC queue, so the link layer retransmits on the next bus grant.
    ++frames_lost_;
    return;
  }
  // A duplicate re-sends the frame just serialized; its wire time must be
  // computed before the chunk below shrinks the remaining payload.
  const SimDuration dup_time = fate == FrameFate::kDuplicate
                                   ? frameTime(p)
                                   : SimDuration::zero();
  const Bytes chunk = frameChunk(p);
  p.remaining = p.remaining - chunk;
  payload_bytes_ += chunk.count();
  payload_bytes_from_[nic] += chunk.count();

  if (p.remaining <= Bytes::zero()) {
    const MessageReceipt receipt{p.enqueued, p.first_bit,
                                 sim_.now() + config_.propagation,
                                 p.msg.payload};
    auto cb = std::move(p.msg.on_delivered);
    nics_[nic].pop_front();
    sim_.scheduleAfter(config_.propagation,
                       [this, cb = std::move(cb), receipt] {
      ++delivered_;
      if (delivery_observer_) {
        delivery_observer_(receipt);
      }
      if (cb) {
        cb(receipt);
      }
    });
  }

  if (fate == FrameFate::kDuplicate) {
    // The spurious copy occupies the wire for the same frame time. The
    // receiver already accepted the original, so the copy is discarded on
    // arrival: no second receipt, chunk, or payload attribution. The bus
    // stays busy, so the caller's arbitration finds nothing to start.
    ++frames_;
    ++frames_duplicated_;
    bus_busy_ = true;
    busy_since_ = sim_.now();
    sim_.scheduleAfter(dup_time, [this] { onDuplicateEnd(); });
  }
}

void Ethernet::onDuplicateEnd() {
  RTDRM_ASSERT(bus_busy_);
  busy_accum_ += sim_.now() - busy_since_;
  bus_busy_ = false;
  arbitrate();
}

SimDuration Ethernet::busyTime() const {
  if (!bus_busy_) {
    return busy_accum_;
  }
  return busy_accum_ + (sim_.now() - busy_since_);
}

double Ethernet::payloadBytesFrom(ProcessorId nic) const {
  RTDRM_ASSERT(nic.value < payload_bytes_from_.size());
  return payload_bytes_from_[nic.value];
}

std::size_t Ethernet::backloggedMessages() const {
  std::size_t total = 0;
  for (const auto& q : nics_) {
    total += q.size();
  }
  return total;
}

void Ethernet::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("net.messages_delivered").set(delivered_);
  reg.counter("net.frames_on_wire").set(frames_);
  reg.counter("net.frames_lost").set(frames_lost_);
  reg.counter("net.frames_duplicated").set(frames_duplicated_);
  reg.counter("net.payload_bytes")
      .set(static_cast<std::uint64_t>(payload_bytes_));
  reg.gauge("net.backlogged_messages")
      .set(static_cast<double>(backloggedMessages()));
  const double now_ms = sim_.now().ms();
  reg.gauge("net.wire_utilization")
      .set(now_ms > 0.0 ? busyTime().ms() / now_ms : 0.0);
}

Utilization NetworkProbe::peek() const {
  const SimDuration window = sim_.now() - last_t_;
  if (window <= SimDuration::zero()) {
    return Utilization::zero();
  }
  // Capacity 1.0 (the bus) divides exactly, so the legacy path is
  // bit-identical; multi-link fabrics normalize by their link count.
  return Utilization::fraction((net_.busyTime() - last_busy_) / window /
                               net_.utilizationCapacity());
}

Utilization NetworkProbe::sample() {
  const Utilization u = peek();
  last_t_ = sim_.now();
  last_busy_ = net_.busyTime();
  return u;
}

}  // namespace rtdrm::net
