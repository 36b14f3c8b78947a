#include "sim/simulator.hpp"

#include <algorithm>
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
    free_head_ = slots_[idx].next_free;
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
  s.next_free = free_head_;
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

EventId Simulator::scheduleAt(SimTime at, Callback cb) {
  RTDRM_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  RTDRM_ASSERT(cb != nullptr);
  const std::uint32_t idx = acquireSlot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
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
  releaseSlot(idx);
  --live_;
  ++stale_;
  ++events_cancelled_;
  // Keep the heap at most half dead so memory tracks the live count.
  if (stale_ > heap_.size() / 2 && heap_.size() > 64) {
    pruneStale();
  }
  return true;
}

bool Simulator::fireHead() {
  const HeapEntry e = heap_[0];
  heapPopHead();
  Slot& s = slots_[e.slot];
  if (s.generation != e.generation) {
    --stale_;  // cancelled earlier; its closure is long gone
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
  const RunScope scope(*this, RunContext{true, until.ms()});
  while (!heap_.empty() && heap_[0].time_ms <= until.ms()) {
    if (fireHead() && consumeStop()) {
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
  while (!heap_.empty()) {
    if (fireHead() && consumeStop()) {
      return false;
    }
  }
  return true;
}

bool Simulator::peekNextEvent(SimTime* out) {
  // Drop stale (cancelled) heads so the reported time is the next event
  // that would actually fire, not a stale upper bound.
  while (!heap_.empty()) {
    const HeapEntry& e = heap_[0];
    if (slots_[e.slot].generation == e.generation) {
      *out = SimTime::millis(e.time_ms);
      return true;
    }
    heapPopHead();
    --stale_;
  }
  return false;
}

void Simulator::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("sim.events_scheduled").set(events_scheduled_);
  reg.counter("sim.events_executed").set(events_executed_);
  reg.counter("sim.events_cancelled").set(events_cancelled_);
  reg.gauge("sim.pending_events").set(static_cast<double>(live_));
  reg.gauge("sim.peak_heap_depth").set(static_cast<double>(peak_heap_depth_));
  reg.gauge("sim.now_ms").set(now_.ms());
}

bool Simulator::step() {
  // A single-event run: nothing may fast-forward past the one event.
  const RunScope scope(*this, RunContext{});
  // Skip over stale entries so "step" always means "execute one live event".
  while (!heap_.empty()) {
    if (fireHead()) {
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
