#include "net/fabric.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::net {

const char* fabricTopologyName(FabricTopology t) {
  switch (t) {
    case FabricTopology::kLine:
      return "line";
    case FabricTopology::kStar:
      return "star";
  }
  return "?";
}

bool parseFabricTopology(const std::string& s, FabricTopology* out) {
  if (s == "line") {
    *out = FabricTopology::kLine;
    return true;
  }
  if (s == "star") {
    *out = FabricTopology::kStar;
    return true;
  }
  return false;
}

void SwitchedFabricConfig::validate() const {
  link.validate();
  RTDRM_ASSERT_MSG(segments >= 1, "segments must be at least 1");
  RTDRM_ASSERT_MSG(port_buffer_frames >= 1,
                   "port buffer must hold at least one frame");
  RTDRM_ASSERT_MSG(switch_latency >= SimDuration::zero(),
                   "switch latency must be non-negative");
  for (const std::uint32_t seg : node_segment) {
    RTDRM_ASSERT_MSG(seg < segments, "node_segment value out of range");
  }
}

SwitchedFabric::SwitchedFabric(sim::Simulator& simulator,
                               std::size_t node_count,
                               SwitchedFabricConfig config)
    : sim_(simulator),
      config_(std::move(config)),
      frame_timer_(config_.link),
      marshal_busy_until_(node_count, SimTime::zero()),
      payload_bytes_from_(node_count, 0.0) {
  RTDRM_ASSERT(node_count > 0);
  config_.validate();
  RTDRM_ASSERT_MSG(config_.segments <= node_count,
                   "more segments than hosts");
  full_frame_lane_ = sim_.addLane(frame_timer_.fullFrameTime());
  propagation_lane_ = sim_.addLane(config_.link.propagation);
  ingress_lane_ =
      sim_.addLane(config_.link.propagation + config_.switch_latency);

  const std::size_t n = node_count;
  const std::size_t s_count = config_.segments;

  // Host -> segment: explicit map, or the management plane's contiguous
  // ceil blocks (segment s owns [ceil(s*n/S), ceil((s+1)*n/S))).
  seg_of_host_.resize(n);
  if (!config_.node_segment.empty()) {
    RTDRM_ASSERT_MSG(config_.node_segment.size() == n,
                     "node_segment map size mismatch");
    for (std::size_t h = 0; h < n; ++h) {
      seg_of_host_[h] = config_.node_segment[h];
    }
  } else {
    for (std::size_t s = 0; s < s_count; ++s) {
      const std::size_t lo = (s * n + s_count - 1) / s_count;
      const std::size_t hi = ((s + 1) * n + s_count - 1) / s_count;
      for (std::size_t h = lo; h < hi; ++h) {
        seg_of_host_[h] = static_cast<std::uint32_t>(s);
      }
    }
  }
  hosts_of_seg_.resize(s_count);
  for (std::size_t h = 0; h < n; ++h) {
    hosts_of_seg_[seg_of_host_[h]].push_back(
        ProcessorId{static_cast<std::uint32_t>(h)});
  }

  // Switch graph adjacency (ascending => deterministic trunk port order).
  neighbors_.resize(s_count);
  if (s_count > 1) {
    switch (config_.topology) {
      case FabricTopology::kLine:
        for (std::size_t s = 0; s < s_count; ++s) {
          if (s > 0) {
            neighbors_[s].push_back(static_cast<std::uint32_t>(s - 1));
          }
          if (s + 1 < s_count) {
            neighbors_[s].push_back(static_cast<std::uint32_t>(s + 1));
          }
        }
        break;
      case FabricTopology::kStar:
        for (std::size_t s = 1; s < s_count; ++s) {
          neighbors_[0].push_back(static_cast<std::uint32_t>(s));
          neighbors_[s].push_back(0);
        }
        break;
    }
  }

  // Static shortest-path routing: BFS from every segment, expanding
  // neighbours in ascending order so ties break towards the lowest index.
  next_hop_.assign(s_count, std::vector<std::uint32_t>(s_count, 0));
  for (std::size_t src = 0; src < s_count; ++src) {
    std::vector<std::uint32_t> parent(s_count, kAnySegment);
    std::vector<std::uint32_t> order;
    parent[src] = static_cast<std::uint32_t>(src);
    order.push_back(static_cast<std::uint32_t>(src));
    for (std::size_t head = 0; head < order.size(); ++head) {
      for (std::uint32_t nb : neighbors_[order[head]]) {
        if (parent[nb] == kAnySegment) {
          parent[nb] = order[head];
          order.push_back(nb);
        }
      }
    }
    for (std::size_t dst = 0; dst < s_count; ++dst) {
      if (dst == src) {
        continue;
      }
      RTDRM_ASSERT_MSG(parent[dst] != kAnySegment,
                       "fabric topology is disconnected");
      std::uint32_t step = static_cast<std::uint32_t>(dst);
      while (parent[step] != static_cast<std::uint32_t>(src)) {
        step = parent[step];
      }
      next_hop_[src][dst] = step;
    }
  }

  // Link construction. Per segment: downlinks (ports 0..L-1), trunks
  // (ports L..L+T-1); then per host: its uplink (nominal port L+T+local).
  uplink_of_host_.resize(n);
  downlink_of_host_.resize(n);
  trunk_link_.resize(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    const std::uint32_t l_count =
        static_cast<std::uint32_t>(hosts_of_seg_[s].size());
    for (std::uint32_t j = 0; j < l_count; ++j) {
      const ProcessorId host = hosts_of_seg_[s][j];
      downlink_of_host_[host.value] = links_.size();
      links_.push_back(Link{LinkKind::kDownlink,
                            static_cast<std::uint32_t>(s), j,
                            static_cast<std::uint32_t>(host.value),
                            config_.port_buffer_frames,
                            {}, false, SimTime::zero()});
    }
    for (std::size_t k = 0; k < neighbors_[s].size(); ++k) {
      trunk_link_[s].push_back(links_.size());
      links_.push_back(Link{LinkKind::kTrunk, static_cast<std::uint32_t>(s),
                            l_count + static_cast<std::uint32_t>(k),
                            neighbors_[s][k], config_.port_buffer_frames,
                            {}, false, SimTime::zero()});
    }
  }
  // Egress routing table: the trunk towards every remote segment.
  trunk_to_.assign(s_count * s_count, 0);
  for (std::size_t s = 0; s < s_count; ++s) {
    for (std::size_t d = 0; d < s_count; ++d) {
      if (d == s) {
        continue;
      }
      const auto& nb = neighbors_[s];
      const auto k = static_cast<std::size_t>(
          std::find(nb.begin(), nb.end(), next_hop_[s][d]) - nb.begin());
      RTDRM_ASSERT_MSG(k < nb.size(), "route points at a non-adjacent segment");
      trunk_to_[s * s_count + d] = trunk_link_[s][k];
    }
  }
  for (std::size_t h = 0; h < n; ++h) {
    const std::uint32_t s = seg_of_host_[h];
    const std::uint32_t l_count =
        static_cast<std::uint32_t>(hosts_of_seg_[s].size());
    const std::uint32_t t_count =
        static_cast<std::uint32_t>(neighbors_[s].size());
    const auto& local = hosts_of_seg_[s];
    const std::uint32_t j = static_cast<std::uint32_t>(
        std::find(local.begin(), local.end(),
                  ProcessorId{static_cast<std::uint32_t>(h)}) -
        local.begin());
    uplink_of_host_[h] = links_.size();
    // Host uplinks are never tail-dropped: the bound models switch
    // memory, and the host NIC backpressures naturally.
    links_.push_back(Link{LinkKind::kUplink, s, l_count + t_count + j, s, 0,
                          {}, false, SimTime::zero()});
  }
}

void SwitchedFabric::send(Message msg) {
  RTDRM_ASSERT(msg.src.value < marshal_busy_until_.size());
  RTDRM_ASSERT(msg.dst.value < marshal_busy_until_.size());
  RTDRM_ASSERT(msg.payload >= Bytes::zero());

  if (msg.src == msg.dst) {
    // Same-node delivery: shared memory hand-off, identical to the bus —
    // no marshalling, no frames, fault-exempt.
    const MessageReceipt receipt{sim_.now(), sim_.now(),
                                 sim_.now() + config_.link.propagation,
                                 msg.payload};
    auto cb = std::move(msg.on_delivered);
    sim_.scheduleOnLane(propagation_lane_,
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

  const std::size_t host = msg.src.value;
  auto state = std::make_shared<MessageState>();
  state->msg = std::move(msg);
  state->enqueued = sim_.now();
  state->first_bit = sim_.now();

  // Host marshalling stage: same sequential per-NIC watermark as the bus.
  const SimDuration marshal = SimDuration::millis(
      config_.link.host_ns_per_byte * state->msg.payload.count() * 1e-6);
  const SimTime start = std::max(sim_.now(), marshal_busy_until_[host]);
  const SimTime done = start + marshal;
  marshal_busy_until_[host] = done;
  auto inject = [this, host, state]() mutable {
    // Chunk the message into MTU frames at the NIC; frames then travel
    // the fabric independently (store-and-forward per hop).
    const std::size_t li = uplink_of_host_[host];
    Bytes remaining = state->msg.payload;
    do {
      const Bytes chunk =
          std::min(config_.link.mtu, std::max(remaining, Bytes::zero()));
      remaining = remaining - chunk;
      ++state->frames_total;
      ++frames_originated_;
      links_[li].q.push_back(Frame{state, chunk, false});
    } while (remaining > Bytes::zero());
    ++msgs_in_fabric_;
    pump(li);
  };
  if (done <= sim_.now()) {
    inject();
  } else {
    sim_.scheduleAt(done, std::move(inject));
  }
}

void SwitchedFabric::pump(std::size_t li) {
  Link& l = links_[li];
  if (l.busy || l.q.empty()) {
    return;
  }
  Frame& f = l.q.front();
  if (!f.state->started) {
    f.state->started = true;
    f.state->first_bit = sim_.now();
  }
  l.busy = true;
  l.busy_since = sim_.now();
  ++frames_;
  auto tx_end = [this, li] { onTxEnd(li); };
  if (frame_timer_.isFull(f.chunk)) {
    sim_.scheduleOnLane(full_frame_lane_, std::move(tx_end));
  } else {
    sim_.scheduleAfter(frame_timer_(f.chunk), std::move(tx_end));
  }
}

void SwitchedFabric::onTxEnd(std::size_t li) {
  Link& l = links_[li];
  RTDRM_ASSERT(l.busy && !l.q.empty());
  busy_accum_ += sim_.now() - l.busy_since;
  l.busy = false;

  const FrameFate fate =
      frame_fate_hook_
          ? frame_fate_hook_(FrameHop{l.q.front().state->msg.src,
                                      l.q.front().state->msg.dst,
                                      l.segment, l.port})
          : FrameFate::kDeliver;
  if (fate == FrameFate::kLose) {
    // Wire time spent, receiver end of the link rejects the frame; it
    // stays at the head of this port for link-layer retransmission.
    ++frames_lost_;
    pump(li);
    return;
  }

  const SimDuration dup_time = frame_timer_(l.q.front().chunk);
  Frame f = std::move(l.q.front());
  l.q.pop_front();
  if (l.kind == LinkKind::kUplink && !f.counted) {
    // Sender attribution happens once, when the NIC first puts the bytes
    // on the wire; NACK retries of the same frame don't recount.
    f.counted = true;
    payload_bytes_ += f.chunk.count();
    payload_bytes_from_[f.state->msg.src.value] += f.chunk.count();
  }

  ++transit_frames_;
  if (l.kind == LinkKind::kDownlink) {
    sim_.scheduleOnLane(propagation_lane_,
                        [this, f = std::move(f)]() mutable {
      onHostArrival(std::move(f));
    });
  } else {
    // Store-and-forward: the whole frame propagates, then the switch
    // spends its processing latency before the next egress queue.
    auto ingress = [this, li, f = std::move(f)]() mutable {
      onSwitchIngress(li, std::move(f));
    };
    static_assert(sizeof(ingress) <= sim::Simulator::Callback::kInlineSize,
                  "a hop's closure must not allocate");
    sim_.scheduleOnLane(ingress_lane_, std::move(ingress));
  }

  if (fate == FrameFate::kDuplicate) {
    // The spurious copy occupies this link for another frame time and is
    // discarded at the far end — no queueing, no second receipt.
    ++frames_;
    ++frames_duplicated_;
    l.busy = true;
    l.busy_since = sim_.now();
    sim_.scheduleAfter(dup_time, [this, li] { onDuplicateEnd(li); });
    return;
  }
  pump(li);
}

void SwitchedFabric::onDuplicateEnd(std::size_t li) {
  Link& l = links_[li];
  RTDRM_ASSERT(l.busy);
  busy_accum_ += sim_.now() - l.busy_since;
  l.busy = false;
  pump(li);
}

std::size_t SwitchedFabric::routeEgress(std::uint32_t seg,
                                        ProcessorId dst) const {
  const std::uint32_t dst_seg = seg_of_host_[dst.value];
  if (dst_seg == seg) {
    return downlink_of_host_[dst.value];
  }
  return trunk_to_[seg * config_.segments + dst_seg];
}

void SwitchedFabric::onSwitchIngress(std::size_t from_link, Frame f) {
  --transit_frames_;
  const std::size_t target =
      routeEgress(links_[from_link].to, f.state->msg.dst);
  Link& t = links_[target];
  if (t.capacity > 0 && t.q.size() >= t.capacity) {
    // Bounded port buffer is full: tail-drop. The link layer NACKs the
    // frame back to the transmitter that just sent it, which requeues it
    // at its tail after one propagation delay. Deterministic, and the
    // frame is delayed — never destroyed — so conservation holds.
    ++frames_dropped_;
    ++transit_frames_;
    sim_.scheduleOnLane(propagation_lane_,
                        [this, from_link, f = std::move(f)]() mutable {
      --transit_frames_;
      links_[from_link].q.push_back(std::move(f));
      pump(from_link);
    });
    return;
  }
  t.q.push_back(std::move(f));
  pump(target);
}

void SwitchedFabric::onHostArrival(Frame f) {
  --transit_frames_;
  ++frames_arrived_;
  MessageState& st = *f.state;
  ++st.frames_arrived;
  RTDRM_ASSERT(st.frames_arrived <= st.frames_total);
  if (st.frames_arrived < st.frames_total) {
    return;
  }
  // Last frame in: the message is delivered now (propagation already
  // elapsed on the final hop).
  const MessageReceipt receipt{st.enqueued, st.first_bit, sim_.now(),
                               st.msg.payload};
  ++delivered_;
  RTDRM_ASSERT(msgs_in_fabric_ > 0);
  --msgs_in_fabric_;
  if (delivery_observer_) {
    delivery_observer_(receipt);
  }
  if (st.msg.on_delivered) {
    st.msg.on_delivered(receipt);
  }
}

SimDuration SwitchedFabric::busyTime() const {
  SimDuration total = busy_accum_;
  for (const Link& l : links_) {
    if (l.busy) {
      total += sim_.now() - l.busy_since;
    }
  }
  return total;
}

double SwitchedFabric::payloadBytesFrom(ProcessorId nic) const {
  RTDRM_ASSERT(nic.value < payload_bytes_from_.size());
  return payload_bytes_from_[nic.value];
}

std::size_t SwitchedFabric::framesInFabric() const {
  std::size_t total = transit_frames_;
  for (const Link& l : links_) {
    total += l.q.size();
  }
  return total;
}

std::uint32_t SwitchedFabric::segmentOf(ProcessorId node) const {
  RTDRM_ASSERT(node.value < seg_of_host_.size());
  return seg_of_host_[node.value];
}

std::uint32_t SwitchedFabric::downlinkPort(ProcessorId host) const {
  return links_[downlink_of_host_[host.value]].port;
}

std::uint32_t SwitchedFabric::uplinkPort(ProcessorId host) const {
  return links_[uplink_of_host_[host.value]].port;
}

std::uint32_t SwitchedFabric::trunkPort(std::uint32_t segment,
                                        std::uint32_t to_segment) const {
  RTDRM_ASSERT(segment < neighbors_.size());
  for (std::size_t k = 0; k < neighbors_[segment].size(); ++k) {
    if (neighbors_[segment][k] == to_segment) {
      return links_[trunk_link_[segment][k]].port;
    }
  }
  RTDRM_ASSERT_MSG(false, "segments are not adjacent");
  return 0;
}

std::uint32_t SwitchedFabric::nextHop(std::uint32_t from,
                                      std::uint32_t to) const {
  RTDRM_ASSERT(from < next_hop_.size() && to < next_hop_.size());
  RTDRM_ASSERT(from != to);
  return next_hop_[from][to];
}

void SwitchedFabric::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("net.messages_delivered").set(delivered_);
  reg.counter("net.frames_on_wire").set(frames_);
  reg.counter("net.frames_lost").set(frames_lost_);
  reg.counter("net.frames_duplicated").set(frames_duplicated_);
  reg.counter("net.frames_dropped").set(frames_dropped_);
  reg.counter("net.payload_bytes")
      .set(static_cast<std::uint64_t>(payload_bytes_));
  reg.gauge("net.backlogged_messages")
      .set(static_cast<double>(backloggedMessages()));
  reg.gauge("net.fabric_segments")
      .set(static_cast<double>(config_.segments));
  const double now_ms = sim_.now().ms();
  reg.gauge("net.wire_utilization")
      .set(now_ms > 0.0
               ? busyTime().ms() / now_ms / utilizationCapacity()
               : 0.0);
}

}  // namespace rtdrm::net
