#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::sim {

namespace {
// 4-ary heap: shallower than binary for the same size, so push/pop walk
// fewer levels; the 4-way child scan stays within two cache lines.
constexpr std::size_t kArity = 4;
}  // namespace

class Simulator::RunScope {
 public:
  RunScope(Simulator& sim, RunContext ctx) : sim_(sim), saved_(sim.run_) {
    sim_.run_ = ctx;
  }
  ~RunScope() { sim_.run_ = saved_; }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  Simulator& sim_;
  RunContext saved_;
};

std::uint32_t Simulator::acquireSlot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].link;
    return idx;
  }
  RTDRM_ASSERT_MSG(slots_.size() < kNoSlot, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::releaseSlot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb = nullptr;  // release the closure immediately
  ++s.generation;  // invalidates the outstanding EventId and heap entry
  s.link = free_head_;
  free_head_ = idx;
}

void Simulator::heapPush(const HeapEntry& e) {
  std::size_t pos = heap_.size();
  heap_.push_back(e);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!firesBefore(e, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void Simulator::heapPopHead() {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) {
    return;
  }
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= size) {
      break;
    }
    const std::size_t last_child = std::min(first_child + kArity, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (firesBefore(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!firesBefore(heap_[best], moved)) {
      break;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moved;
}

void Simulator::pruneStale() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) {
                               return slots_[e.slot].generation !=
                                      e.generation;
                             }),
              heap_.end());
  stale_ = 0;
  // Heapify bottom-up (Floyd): O(n).
  if (heap_.size() < 2) {
    return;
  }
  for (std::size_t pos = (heap_.size() - 2) / kArity + 1; pos-- > 0;) {
    const HeapEntry e = heap_[pos];
    std::size_t hole = pos;
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first_child = hole * kArity + 1;
      if (first_child >= size) {
        break;
      }
      const std::size_t last_child = std::min(first_child + kArity, size);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (firesBefore(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!firesBefore(heap_[best], e)) {
        break;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = e;
  }
}

void Simulator::lanePush(std::uint32_t k, const HeapEntry& e) {
  Lane& lane = lanes_[k];
  if (lane.size == 0 &&
      (lane_head_ == kEmpty || firesBefore(e, lanes_[lane_head_].front()))) {
    lane_head_ = k;  // pushing onto a non-empty lane keeps its front
  }
  if (lane.size == lane.ring.size()) {
    // Full: unroll into a ring of twice the capacity, head at 0.
    std::vector<HeapEntry> grown(std::max<std::size_t>(16, 2 * lane.size));
    for (std::size_t i = 0; i < lane.size; ++i) {
      grown[i] = lane.at(i);
    }
    lane.ring = std::move(grown);
    lane.mask = lane.ring.size() - 1;
    lane.head = 0;
  }
  lane.ring[(lane.head + lane.size) & lane.mask] = e;
  ++lane.size;
  ++lane_entries_;
  if (lane.size > peak_lane_depth_) {
    peak_lane_depth_ = lane.size;
  }
}

void Simulator::compactLane(std::uint32_t k) {
  Lane& lane = lanes_[k];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < lane.size; ++i) {
    const HeapEntry e = lane.at(i);
    if (slots_[e.slot].generation == e.generation) {
      lane.ring[(lane.head + kept++) & lane.mask] = e;
    }
  }
  lane_entries_ -= lane.size - kept;
  lane.size = kept;
  lane.stale = 0;
  findLaneHead();
}

void Simulator::findLaneHead() {
  lane_head_ = kEmpty;
  for (std::uint32_t k = 0; k < lanes_.size(); ++k) {
    if (lanes_[k].size != 0 &&
        (lane_head_ == kEmpty ||
         firesBefore(lanes_[k].front(), lanes_[lane_head_].front()))) {
      lane_head_ = k;
    }
  }
}

Simulator::HeapEntry Simulator::lanePopFront(std::uint32_t k) {
  Lane& lane = lanes_[k];
  const HeapEntry e = lane.front();
  lane.head = (lane.head + 1) & lane.mask;
  --lane.size;
  --lane_entries_;
  findLaneHead();
  return e;
}

void Simulator::popStale(std::uint32_t src) {
  popHead(src);
  dropStale(src);
}

LaneId Simulator::addLane(SimDuration delay) {
  RTDRM_ASSERT_MSG(delay >= SimDuration::zero(), "negative delay");
  for (std::uint32_t k = 0; k < lanes_.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(lanes_[k].delay.ms()) ==
        std::bit_cast<std::uint64_t>(delay.ms())) {
      return LaneId{k};  // one FIFO per delay: the entries interleave sorted
    }
  }
  RTDRM_ASSERT_MSG(lanes_.size() < kInHeap, "too many lanes");
  lanes_.push_back(Lane{delay, {}, 0, 0, 0, 0});
  return LaneId{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

EventId Simulator::scheduleOnLane(LaneId lane, Callback cb) {
  RTDRM_ASSERT_MSG(lane.value < lanes_.size(), "unknown lane");
  RTDRM_ASSERT(cb != nullptr);
  Lane& l = lanes_[lane.value];
  // The same addition scheduleAfter(delay) makes, so the bits match.
  const double at_ms = (now_ + l.delay).ms();
  RTDRM_ASSERT_MSG(l.size == 0 || l.at(l.size - 1).time_ms <= at_ms,
                   "lane entry would fire before the lane's tail");
  const std::uint32_t idx = acquireSlot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.link = lane.value;
  lanePush(lane.value, HeapEntry{at_ms, next_seq_++, idx, s.generation});
  ++live_;
  ++events_scheduled_;
  ++lane_events_;
  return EventId{(static_cast<std::uint64_t>(s.generation) << 32) | idx};
}

EventId Simulator::scheduleAt(SimTime at, Callback cb) {
  RTDRM_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  RTDRM_ASSERT(cb != nullptr);
  const std::uint32_t idx = acquireSlot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.link = kInHeap;
  heapPush(HeapEntry{at.ms(), next_seq_++, idx, s.generation});
  ++live_;
  ++events_scheduled_;
  if (heap_.size() > peak_heap_depth_) {
    peak_heap_depth_ = heap_.size();
  }
  return EventId{(static_cast<std::uint64_t>(s.generation) << 32) | idx};
}

EventId Simulator::scheduleAfter(SimDuration delay, Callback cb) {
  RTDRM_ASSERT_MSG(delay >= SimDuration::zero(), "negative delay");
  return scheduleAt(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value >> 32);
  if (gen == 0 || idx >= slots_.size() || slots_[idx].generation != gen) {
    return false;  // never existed, already fired, or already cancelled
  }
  const std::uint32_t where = slots_[idx].link;
  releaseSlot(idx);
  --live_;
  ++events_cancelled_;
  // Keep the heap and each lane at most half dead so memory tracks the
  // live count. Each container counts only its own stale entries.
  if (where == kInHeap) {
    ++stale_;
    if (stale_ > heap_.size() / 2 && heap_.size() > 64) {
      pruneStale();
    }
  } else {
    Lane& lane = lanes_[where];
    ++lane.stale;
    if (lane.stale > lane.size / 2 && lane.size > 64) {
      compactLane(where);
    }
  }
  return true;
}

// Inline, like fireNext: each run loop keeps its heap path free of calls.
inline bool Simulator::fireHead(std::uint32_t src) {
  const HeapEntry e = popHead(src);
  Slot& s = slots_[e.slot];
  if (s.generation != e.generation) {
    dropStale(src);  // cancelled earlier; its closure is long gone
    return false;
  }
  now_ = SimTime::millis(e.time_ms);
  Callback cb = std::move(s.cb);
  releaseSlot(e.slot);  // before invoking: the id is dead once it fires
  --live_;
  ++events_executed_;
  cb();
  if (post_hook_ != nullptr) {
    post_hook_();
  }
  return true;
}

inline bool Simulator::fireNext(std::uint32_t src) {
  return src == kInHeap ? fireHead(kInHeap) : fireHead(src);
}

bool Simulator::advanceTo(SimTime t) {
  if (!run_.active || post_hook_ != nullptr || stopPending() || t < now_) {
    return false;
  }
  const double t_ms = t.ms();
  if (t_ms > run_.limit_ms) {
    return false;  // the run loop would leave this event pending
  }
  SimTime next;
  if (peekNextEvent(&next) && !(t_ms < next.ms())) {
    return false;  // another event is due first, or ties on seq
  }
  now_ = t;
  ++events_executed_;
  return true;
}

bool Simulator::runUntil(SimTime until) {
  if (consumeStop()) {
    return false;  // stop requested between runs: honor it, fire nothing
  }
  const double until_ms = until.ms();
  const RunScope scope(*this, RunContext{true, until_ms});
  for (std::uint32_t src; (src = headSource()) != kEmpty &&
                          headEntry(src).time_ms <= until_ms;) {
    if (fireNext(src) && consumeStop()) {
      return false;  // clock stays at the event that requested the stop
    }
  }
  if (now_ < until) {
    now_ = until;  // idle forward to the horizon
  }
  return true;
}

bool Simulator::runAll() {
  if (consumeStop()) {
    return false;
  }
  const RunScope scope(
      *this,
      RunContext{true, std::numeric_limits<double>::infinity()});
  for (std::uint32_t src; (src = headSource()) != kEmpty;) {
    if (fireNext(src) && consumeStop()) {
      return false;
    }
  }
  return true;
}

void Simulator::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("sim.events_scheduled").set(events_scheduled_);
  reg.counter("sim.events_executed").set(events_executed_);
  reg.counter("sim.events_cancelled").set(events_cancelled_);
  reg.gauge("sim.pending_events").set(static_cast<double>(live_));
  reg.gauge("sim.peak_heap_depth").set(static_cast<double>(peak_heap_depth_));
  reg.counter("sim.lane_events").set(lane_events_);
  reg.gauge("sim.peak_lane_depth").set(static_cast<double>(peak_lane_depth_));
  reg.gauge("sim.now_ms").set(now_.ms());
}

bool Simulator::step() {
  // A single-event run: nothing may fast-forward past the one event.
  const RunScope scope(*this, RunContext{});
  // Skip over stale entries so "step" always means "execute one live event".
  for (std::uint32_t src; (src = headSource()) != kEmpty;) {
    if (fireNext(src)) {
      return true;
    }
  }
  return false;
}

PeriodicActivity::PeriodicActivity(Simulator& simulator, SimDuration period,
                                   TickFn fn)
    : sim_(simulator), period_(period), fn_(std::move(fn)) {
  RTDRM_ASSERT(period_ > SimDuration::zero());
  RTDRM_ASSERT(fn_ != nullptr);
}

void PeriodicActivity::start(SimTime first) {
  RTDRM_ASSERT_MSG(!running_, "activity already started");
  running_ = true;
  arm(first);
}

void PeriodicActivity::arm(SimTime at) {
  pending_ = sim_.scheduleAt(at, [this] {
    const std::uint64_t this_tick = tick_++;
    // Re-arm before invoking so the callback may call stop() to cancel the
    // next occurrence.
    arm(sim_.now() + period_);
    fn_(this_tick);
  });
}

void PeriodicActivity::setPeriod(SimDuration period) {
  RTDRM_ASSERT(period > SimDuration::zero());
  period_ = period;
}

void PeriodicActivity::stop() {
  if (running_) {
    sim_.cancel(pending_);
    running_ = false;
  }
}

}  // namespace rtdrm::sim
