// Discrete-event simulation kernel.
//
// A single-threaded event calendar: callbacks are scheduled at absolute
// simulation times and executed in (time, insertion-order) order. Insertion
// order as the tie-break makes runs bit-reproducible — two events at the
// same timestamp always fire in the order they were scheduled, regardless
// of heap internals.
//
// Hot-path design (see docs/architecture.md, "Simulation kernel"):
//   * Closures live in a free-list slab of slots (closure + generation).
//     Scheduling reuses a freed slot or grows the slab; steady-state churn
//     performs zero allocations and zero map/set traffic.
//   * A 4-ary min-heap of 24-byte entries {time, seq, slot, generation}
//     orders the calendar. The sort key is stored *in* the entry, so sift
//     comparisons stay inside the contiguous heap array instead of chasing
//     slot pointers.
//   * cancel() is O(1): it bumps the slot's generation and releases the
//     closure immediately. The heap entry stays behind and is recognised
//     as stale (generation mismatch) when it reaches the head, at the cost
//     of one integer compare. If more than half the heap goes stale the
//     heap is pruned and rebuilt in one O(n) pass, so memory stays
//     proportional to the live event count.
//   * EventIds carry (generation << 32 | slot): a stale id — already fired
//     or cancelled, slot since reused — fails the generation check.
//   * Fixed-delay lanes: events that all fire the same delay after they
//     are scheduled (a network hop's propagation, a full frame's wire
//     time) can go to a lane, a FIFO ring of the same 24-byte entries,
//     instead of the heap. A lane is sorted by construction, so its head
//     is its earliest entry; the calendar fires the earlier, by (time,
//     seq), of the heap head and the lane heads. The order is exactly a
//     heap-only calendar's (see addLane). With no lane entry pending the
//     run loop checks one counter and takes the plain heap path.
//   * Closures are stored as sim::EventFn (event_fn.hpp): move-only, with
//     inline storage for the common small captures.
//
// This is the substrate every other module runs on: processors, the
// Ethernet bus, clock sync, the workload source, and the resource manager
// are all just event producers/consumers on one Simulator.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/event_fn.hpp"

namespace rtdrm::obs {
class MetricsRegistry;
}  // namespace rtdrm::obs

namespace rtdrm::sim {

/// Opaque handle to a scheduled event; used for cancellation.
struct EventId {
  std::uint64_t value = 0;
  constexpr auto operator<=>(const EventId&) const = default;
};

/// Handle to a fixed-delay lane of one Simulator (see Simulator::addLane).
struct LaneId {
  std::uint32_t value = 0;
  constexpr auto operator<=>(const LaneId&) const = default;
};

/// Test-only access to the kernel's internals (defined by tests).
struct SimulatorTestAccess;

class Simulator {
 public:
  using Callback = EventFn<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must not be in the past).
  EventId scheduleAt(SimTime at, Callback cb);
  /// Schedule `cb` after a delay relative to now (delay >= 0).
  EventId scheduleAfter(SimDuration delay, Callback cb);

  /// Opens a fixed-delay lane: every event scheduled on it fires `delay`
  /// (>= 0) after the moment it is scheduled. Lanes whose delays are
  /// bitwise equal are one lane, so asking twice returns the same id.
  ///
  /// scheduleOnLane(lane, cb) is scheduleAfter(delay, cb) in everything
  /// observable: the time is the same `now() + delay` addition, the entry
  /// takes its slot and sequence number from the same counters, and its
  /// EventId, cancel(), pendingEvents(), the event counters, step(),
  /// runUntil horizons, stop handling, advanceTo() and peekNextEvent()
  /// treat it exactly alike. Only the container differs: the entry is
  /// appended to the lane's FIFO instead of pushed on the heap.
  ///
  /// Why the order is exact: now() never decreases, IEEE round-to-nearest
  /// addition is monotone, and sequence numbers only grow. So each lane
  /// is sorted by (time, seq) as it is filled, its head is its earliest
  /// entry, and firing the earlier of the heap head and the lane heads
  /// gives the order a heap-only calendar gives. scheduleOnLane asserts
  /// the sortedness it relies on.
  LaneId addLane(SimDuration delay);
  EventId scheduleOnLane(LaneId lane, Callback cb);

  /// Cancel a pending event. Returns false if it already fired, was already
  /// cancelled, or never existed. O(1): the closure is released here.
  bool cancel(EventId id);

  /// Run until the event queue drains or `until` is reached, whichever is
  /// first. The clock is left at min(until, time of last event). Events
  /// scheduled exactly at `until` do fire. Returns false when the run was
  /// cut short by requestStop() (consumed), true when it ran to the
  /// horizon / drained the queue.
  bool runUntil(SimTime until);
  /// Run for a duration from the current time.
  bool runFor(SimDuration d) { return runUntil(now_ + d); }
  /// Run until the queue is completely empty. Returns false when stopped.
  bool runAll();
  /// Execute the single next event, if any. Returns false when queue empty.
  /// Unaffected by requestStop(): step() is already a single-event run.
  bool step();

  /// Tail-position fast-forward: moves the clock to `t` without touching
  /// the calendar, as if an event scheduled at `t` had just been popped.
  /// Succeeds only when that is exactly what the calendar would have done:
  ///   * a run loop (runUntil, runAll) is executing the current
  ///     callback — not step(), and not between runs;
  ///   * now() <= t, and t lies inside the active run's horizon (<= until
  ///     for runUntil);
  ///   * t is strictly earlier than the next live event (peekNextEvent);
  ///   * no post-event hook is installed and no stop is pending.
  /// On success it sets the clock to `t`, counts one executed event and
  /// takes no sequence number; on failure it changes nothing (except
  /// pruning stale heads, as peekNextEvent does) and the caller schedules
  /// the event instead.
  ///
  /// Why it is equivalent: with those conditions the calendar would pop
  /// the event at `t` as soon as the current callback returned — no other
  /// event is due first, no hook or stop check runs in between, and the
  /// run loop's horizon admits it. Sequence numbers only break ties
  /// between events at equal times, and the strict `<` rules out any tie
  /// with an event already pending; events scheduled afterwards get
  /// increasing sequence numbers either way, so their relative order is
  /// unchanged. Skipping the number the elided event would have taken is
  /// a monotone relabeling, invisible to every comparison.
  ///
  /// Tail-position rule: call it only as the last thing a callback you
  /// own does before carrying on as the advanced event (typically a loop
  /// whose next iteration is the event's body). Anything the current
  /// callback still does after a successful advance runs at time `t`, so
  /// code reached from someone else's callback must keep scheduling.
  bool advanceTo(SimTime t);

  /// Time of the next live event without executing it; false when the
  /// calendar is empty. Prunes stale (cancelled) heads as a side effect,
  /// so the answer is exact, not an upper bound. Inline: advanceTo() asks
  /// this once per bus frame.
  bool peekNextEvent(SimTime* out) {
    for (std::uint32_t src; (src = headSource()) != kEmpty; popStale(src)) {
      const HeapEntry& e = headEntry(src);
      if (slots_[e.slot].generation == e.generation) {
        *out = SimTime::millis(e.time_ms);
        return true;
      }
    }
    return false;
  }

  /// Installs a hook invoked after every executed event's callback returns
  /// (correctness oracles sweep system invariants here). Pass nullptr to
  /// clear. At most one hook; the previous one is replaced.
  void setPostEventHook(Callback hook) { post_hook_ = std::move(hook); }
  bool hasPostEventHook() const { return post_hook_ != nullptr; }

  /// Request that the run loop stop after the current event returns.
  ///
  /// Semantics: the flag is *consumed* by the run loop, not reset on entry.
  /// If requestStop() is called while no run loop is active, the next
  /// runUntil/runFor/runAll returns immediately — firing no events and
  /// leaving the clock untouched — and clears the flag, so the run after
  /// that proceeds normally. A stop requested mid-run halts the loop after
  /// the current callback returns, leaving the clock at that event's time.
  ///
  /// The flag is an atomic handshake: requestStop()/stopPending() are safe
  /// from any thread, though the run loops themselves stay single-threaded
  /// per simulator.
  void requestStop() {
    stop_requested_.store(true, std::memory_order_release);
  }
  /// True when a stop has been requested but no run loop has consumed it.
  bool stopPending() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  std::uint64_t eventsExecuted() const { return events_executed_; }
  std::size_t pendingEvents() const { return live_; }
  std::uint64_t eventsScheduled() const { return events_scheduled_; }
  std::uint64_t eventsCancelled() const { return events_cancelled_; }
  /// High-water mark of the calendar heap (live + stale entries). Counts
  /// heap entries only: events waiting in a lane are not in the heap.
  std::size_t peakHeapDepth() const { return peak_heap_depth_; }
  /// Events scheduled on lanes so far (a subset of eventsScheduled()).
  std::uint64_t laneEvents() const { return lane_events_; }
  /// High-water mark of the deepest lane (live + stale entries).
  std::size_t peakLaneDepth() const { return peak_lane_depth_; }

  /// Publishes kernel counters into `reg` under "sim." names.
  void exportMetrics(obs::MetricsRegistry& reg) const;

 private:
  friend struct SimulatorTestAccess;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Where a pending entry waits: the heap, or else a lane index.
  static constexpr std::uint32_t kInHeap = 0xfffffffeu;
  /// headSource() of an empty calendar.
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;  // bumped on release; 0 is never valid
    /// While free: the next free slot (kNoSlot ends the list). While
    /// pending: where its entry waits (kInHeap or a lane index), so
    /// cancel() charges the right container's stale count.
    std::uint32_t link = kNoSlot;
  };

  struct HeapEntry {
    double time_ms;
    std::uint64_t seq;  // insertion order: same-time events fire FIFO
    std::uint32_t slot;
    std::uint32_t generation; // stale when != slots_[slot].generation
  };

  static bool firesBefore(const HeapEntry& a, const HeapEntry& b) {
    if (a.time_ms != b.time_ms) {
      return a.time_ms < b.time_ms;
    }
    return a.seq < b.seq;
  }

  /// A FIFO ring of entries, sorted by (time, seq) because they all fire
  /// `delay` after they were scheduled. The capacity is a power of two
  /// that doubles when the ring is full, so it holds the lane's peak
  /// depth; stale entries are compacted away like the heap's.
  struct Lane {
    SimDuration delay;
    std::vector<HeapEntry> ring;
    std::size_t mask = 0;   // ring.size() - 1 once the ring is allocated
    std::size_t head = 0;
    std::size_t size = 0;
    std::size_t stale = 0;  // cancelled entries still in the ring

    const HeapEntry& front() const { return ring[head]; }
    const HeapEntry& at(std::size_t i) const {
      return ring[(head + i) & mask];
    }
  };

  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t idx);
  void heapPush(const HeapEntry& e);
  void heapPopHead();
  /// Drops stale entries and rebuilds the heap in place, O(n).
  void pruneStale();
  void lanePush(std::uint32_t k, const HeapEntry& e);
  /// Drops lane k's stale entries in place, keeping the order.
  void compactLane(std::uint32_t k);
  /// Recomputes lane_head_ after a lane's front changed.
  void findLaneHead();

  /// Where the earliest pending entry (live or stale) waits: kInHeap, a
  /// lane index, or kEmpty. With no lane entry pending this is one
  /// counter test on top of the heap-only check; otherwise one more
  /// comparison, against the cached earliest lane.
  std::uint32_t headSource() const {
    if (lane_entries_ == 0) {
      return heap_.empty() ? kEmpty : kInHeap;
    }
    return heap_.empty() || firesBefore(lanes_[lane_head_].front(), heap_[0])
               ? lane_head_
               : kInHeap;
  }
  const HeapEntry& headEntry(std::uint32_t src) const {
    return src == kInHeap ? heap_[0] : lanes_[src].front();
  }
  /// Removes and returns the head entry of `src` (not kEmpty).
  HeapEntry popHead(std::uint32_t src) {
    if (src == kInHeap) {
      const HeapEntry e = heap_[0];
      heapPopHead();
      return e;
    }
    return lanePopFront(src);
  }
  HeapEntry lanePopFront(std::uint32_t k);
  /// A cancelled entry of `src` was popped: its container holds one less.
  void dropStale(std::uint32_t src) {
    if (src == kInHeap) {
      --stale_;
    } else {
      --lanes_[src].stale;
    }
  }
  /// Pops the head of `src`, known to be stale (out of line: rare).
  void popStale(std::uint32_t src);

  /// Pops the head entry of `src` (a headSource() result other than
  /// kEmpty); executes it unless stale. Returns true when a live event ran.
  bool fireHead(std::uint32_t src);
  /// fireHead(src) with the heap case spelled out, so that it compiles to
  /// the heap-only calendar's code: runs without lanes pay nothing extra.
  bool fireNext(std::uint32_t src);

  /// Run-loop context that advanceTo() checks. Each run entry point
  /// installs its own (step() installs "no run") and restores the
  /// enclosing one on exit, so nested runs stay exact.
  struct RunContext {
    bool active = false;     // inside runUntil/runAll
    double limit_ms = 0.0;   // +inf for runAll
  };
  class RunScope;
  /// Consumes a pending stop request; returns true if one was pending.
  bool consumeStop() {
    // Cheap fast path: loads dodge the RMW until a stop is actually seen.
    if (!stop_requested_.load(std::memory_order_acquire)) {
      return false;
    }
    return stop_requested_.exchange(false, std::memory_order_acq_rel);
  }

  SimTime now_ = SimTime::zero();
  Callback post_hook_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::size_t peak_heap_depth_ = 0;
  std::uint64_t lane_events_ = 0;
  std::size_t peak_lane_depth_ = 0;
  std::atomic<bool> stop_requested_{false};
  RunContext run_;

  std::vector<Slot> slots_;           // slab; index == slot id
  std::uint32_t free_head_ = kNoSlot; // head of the freed-slot list
  std::vector<HeapEntry> heap_;       // 4-ary min-heap by (time, seq)
  std::size_t live_ = 0;              // scheduled and not cancelled
  std::size_t stale_ = 0;             // cancelled entries still in heap_
  std::vector<Lane> lanes_;           // index == LaneId::value
  std::size_t lane_entries_ = 0;      // entries in all lanes, stale too
  /// The non-empty lane whose front fires first; kEmpty when every lane
  /// is empty (lane_entries_ == 0).
  std::uint32_t lane_head_ = kEmpty;
};

/// A recurring activity: reschedules itself every `period` until stopped.
/// The callback receives the activity's tick index (0-based).
class PeriodicActivity {
 public:
  using TickFn = EventFn<void(std::uint64_t)>;

  PeriodicActivity(Simulator& simulator, SimDuration period, TickFn fn);
  ~PeriodicActivity() { stop(); }
  PeriodicActivity(const PeriodicActivity&) = delete;
  PeriodicActivity& operator=(const PeriodicActivity&) = delete;

  /// Arm the activity: first tick at `first`, then every period.
  void start(SimTime first);
  /// Cancel future ticks. Safe to call repeatedly or from within the tick.
  void stop();
  /// Change the inter-tick period (elastic period adjustment). Takes
  /// effect when the *next* tick re-arms: the already-pending occurrence
  /// keeps its scheduled time, so a mid-cycle change never moves or
  /// duplicates a tick. Deterministic: the new cadence depends only on
  /// when this is called relative to the tick sequence.
  void setPeriod(SimDuration period);
  SimDuration period() const { return period_; }
  bool running() const { return running_; }
  std::uint64_t ticks() const { return tick_; }

 private:
  void arm(SimTime at);

  Simulator& sim_;
  SimDuration period_;
  TickFn fn_;
  EventId pending_{};
  std::uint64_t tick_ = 0;
  bool running_ = false;
};

}  // namespace rtdrm::sim
