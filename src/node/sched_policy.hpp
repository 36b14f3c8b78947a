// Pluggable per-processor scheduling policies.
//
// The Processor used to hard-code its three dispatch disciplines
// (round-robin / FIFO / static priority) in branches; this interface makes
// the discipline a strategy object so dynamic-priority real-time policies
// (EDF, RMS, LLF) plug in beside them. The hooks mirror the decision
// points of the Processor's event loop:
//
//   * insertPos()     — where an arriving job enters the ready queue,
//   * preemptOnAdmit()— whether that arrival truncates the running stretch,
//   * pickNext()      — which resident the next stretch serves,
//   * slice()         — how much service the stretch grants,
//   * rotateExpired() — whether an unfinished head rotates to the tail.
//
// Every hook must be deterministic (pure functions of the queue and the
// context): the fuzzer's seed-replay digests pin them down.
// Ties are broken by JobId, the one total order that exists on every job.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>

#include "node/job.hpp"

namespace rtdrm::node {

enum class SchedPolicy {
  kRoundRobin,  ///< time-sliced, quantum from ProcessorConfig
  kFifo,        ///< run to completion in arrival order
  kPriority,    ///< preemptive static priority (Job::priority, lower first),
                ///< FIFO within a priority level
  kEdf,         ///< earliest absolute deadline first (Job::deadline),
                ///< preemptive; deadline-less jobs rank last
  kRms,         ///< rate-monotonic: shortest Job::period first, preemptive;
                ///< aperiodic jobs rank last
  kLlf,         ///< least laxity first (deadline - now - remaining),
                ///< re-evaluated per quantum under contention
};

/// Stable lower-case token per policy ("rr", "fifo", "priority", "edf",
/// "rms", "llf").
const char* schedPolicyName(SchedPolicy p);
/// Parses a schedPolicyName token (also accepts "round-robin" for "rr").
/// Returns false and leaves `out` untouched on unknown input.
bool parseSchedPolicy(const std::string& s, SchedPolicy* out);

/// A job resident on a processor: its id and outstanding *wall* service
/// time (demand re-priced at the node's effective speed).
struct Resident {
  JobId id;
  SimDuration remaining;
  Job job;
};

/// Decision-point context handed to every hook. `stretch_len` and
/// `stretch_elapsed` describe the in-flight stretch (scheduled length
/// including its context-switch charge, and wall time elapsed since it
/// started) and are only meaningful inside preemptOnAdmit().
struct SchedContext {
  SimTime now;
  SimDuration quantum;
  SimDuration context_switch;
  SimDuration stretch_len = SimDuration::zero();
  SimDuration stretch_elapsed = SimDuration::zero();
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  virtual SchedPolicy kind() const = 0;

  /// Ready-queue position for `incoming` (not yet in `queue`). Must be in
  /// [floor, queue.size()]; `floor` is 1 while a stretch is running (the
  /// running job owns the front slot, an invariant of the Processor's
  /// settle/abort paths) and 0 otherwise. Default: back of the queue.
  virtual std::size_t insertPos(const std::deque<Resident>& queue,
                                const Resident& incoming, std::size_t floor,
                                const SchedContext& ctx) const {
    (void)incoming;
    (void)floor;
    (void)ctx;
    return queue.size();
  }

  /// Called after `incoming` was inserted while a stretch is in flight
  /// (queue.front() is the running job). True truncates the stretch: the
  /// consumed span is settled and pickNext() decides afresh.
  virtual bool preemptOnAdmit(const std::deque<Resident>& queue,
                              const Resident& incoming,
                              const SchedContext& ctx) const = 0;

  /// Index of the resident the next stretch serves (queue is non-empty and
  /// idle; the Processor moves the pick to the front).
  virtual std::size_t pickNext(const std::deque<Resident>& queue,
                               const SchedContext& ctx) const = 0;

  /// Pure service time granted to the picked head this stretch (the
  /// context-switch charge is added by the Processor).
  virtual SimDuration slice(const Resident& head, std::size_t queue_size,
                            const SchedContext& ctx) const = 0;

  /// Whether a head that expired its slice unfinished rotates to the tail
  /// (round-robin) instead of staying in place for re-selection.
  virtual bool rotateExpired() const = 0;
};

/// Factory for the built-in policies.
std::unique_ptr<SchedulerPolicy> makeSchedulerPolicy(SchedPolicy kind);

}  // namespace rtdrm::node
