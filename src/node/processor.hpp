// A simulated processor node with a pluggable CPU scheduler.
//
// Models item 12 of the paper's system model: homogeneous processors with
// private memory, each running a Round-Robin scheduler with a 1 ms time
// slice (Table 1). The scheduling discipline itself is a strategy object
// (node/sched_policy.hpp): FIFO and static priority are provided for
// ablation studies, and the real-time disciplines EDF, RMS and LLF plug in
// for the scheduler x adaptation studies (ROADMAP item 3).
//
// Event efficiency: while only one job is resident the processor runs it in
// a single stretch (one completion event) instead of slicing; slicing
// events are only generated under contention. An arrival during a stretch
// truncates it and falls back to quantum-granular scheduling, so observable
// behaviour is identical to naive per-quantum simulation.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "node/job.hpp"
#include "node/sched_policy.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::node {

struct ProcessorConfig {
  SchedPolicy policy = SchedPolicy::kRoundRobin;
  /// Time slice of the quantum-granular policies (RR always; LLF under
  /// contention); Table 1 baseline is 1 ms.
  SimDuration quantum = SimDuration::millis(1.0);
  /// Fixed context-switch overhead charged at each dispatch boundary.
  /// Wall time, NOT scaled by `speed` or the throttle factor (bus
  /// arbitration and cache refill do not speed up with the core clock).
  SimDuration context_switch = SimDuration::zero();
  /// Relative speed: a job of demand d occupies d / speed of wall time.
  /// 1.0 everywhere = the paper's homogeneous-processor assumption
  /// (model item 12); other values are an extension for heterogeneity
  /// studies.
  double speed = 1.0;

  /// Aborts (RTDRM_ASSERT style, mirroring fault::FaultPlan::validate)
  /// on a non-positive quantum, negative context switch, or non-positive
  /// speed. Called by the Processor constructor and by scenario/CLI
  /// builders before wiring a cluster.
  void validate() const;
};

class Processor {
 public:
  /// Residual tolerance: a job whose remaining service is within this of
  /// zero is complete. Bounds the floating-point dust of repeated quantum
  /// subtraction; equivalently, at most this much of a job's submitted
  /// demand may go unserved (the property tests pin that budget down).
  static constexpr double kResidualEpsMs = 1e-9;

  Processor(sim::Simulator& simulator, ProcessorId id,
            ProcessorConfig config = {});
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  ProcessorId id() const { return id_; }
  const ProcessorConfig& config() const { return config_; }

  /// Submit a job for execution. Returns its id immediately; the job's
  /// on_complete fires when its full demand has been served. A down node
  /// drops the job (counted in jobsRejected()) and returns kNoJob — its
  /// on_complete never fires, exactly like a crash between submit and
  /// completion.
  JobId submit(Job job);

  /// Abort a queued or running job (its on_complete never fires).
  /// Returns false if the job is unknown or already finished.
  bool abort(JobId id);

  /// Crash (`up = false`) or restart (`up = true`) the node. A crash
  /// silently aborts every resident job — in-flight completions are lost,
  /// no on_complete callbacks fire — and freezes busyTime(). A restart
  /// brings the node back empty; state held in its private memory is gone.
  void setUp(bool up);
  bool isUp() const { return up_; }

  /// Transient CPU throttling: effective speed is config().speed * factor.
  /// Rescales the remaining wall time of resident jobs (their outstanding
  /// demand is served at the new rate from now on); the fixed
  /// context-switch component of an in-flight stretch is NOT rescaled —
  /// its unconsumed part carries over to the resumed stretch unchanged.
  /// Factor must be > 0.
  void setSpeedFactor(double factor);
  double speedFactor() const { return speed_factor_; }

  /// Number of jobs resident (queued + running).
  std::size_t residentJobs() const { return queue_.size(); }
  bool busy() const { return running_; }

  /// Cumulative CPU busy time since construction (monotone). Utilization
  /// over a window is the caller's delta(busy) / delta(now) — see
  /// UtilizationProbe.
  ///
  /// Accounting invariant (audited, no double-count): busy_accum_ advances
  /// ONLY when a stretch terminates — onStretchEnd adds the full stretch
  /// length, settleRunningStretch adds the elapsed span — and every
  /// termination path clears running_ first. While a stretch is in flight
  /// this adds the elapsed span exactly once on top of an accumulator that
  /// does not yet include any of it. At all times
  ///   busyTime() == demandServed() + schedOverhead() + in-flight span,
  /// the conservation law the check/ oracle sweeps (policy-agnostic: no
  /// scheduling discipline can create or destroy CPU time).
  SimDuration busyTime() const;

  /// Cumulative pure service time charged to jobs (updated at stretch
  /// boundaries; excludes context-switch overhead and any in-flight span).
  SimDuration demandServed() const { return served_accum_; }
  /// Cumulative context-switch overhead charged (same update points).
  SimDuration schedOverhead() const { return overhead_accum_; }

  std::uint64_t jobsCompleted() const { return jobs_completed_; }
  std::uint64_t jobsAborted() const { return jobs_aborted_; }
  /// Jobs dropped because they were submitted while the node was down.
  std::uint64_t jobsRejected() const { return jobs_rejected_; }

 private:
  /// Starts serving the policy's pick if idle and work is pending.
  void dispatch();
  /// End of the current service stretch (quantum or run-to-completion).
  void onStretchEnd();
  /// Accounts CPU time consumed by the in-flight stretch up to now. The
  /// unconsumed part of the stretch's context-switch charge is banked as a
  /// resume credit: if the very same job is dispatched next it only owes
  /// the residue (continuing is not a new dispatch boundary); any other
  /// pick pays the full charge.
  void settleRunningStretch();
  SchedContext schedContext() const;

  sim::Simulator& sim_;
  ProcessorId id_;
  ProcessorConfig config_;
  std::unique_ptr<SchedulerPolicy> policy_;

  std::deque<Resident> queue_;
  bool up_ = true;
  double speed_factor_ = 1.0;
  bool running_ = false;
  SimTime stretch_start_ = SimTime::zero();
  SimDuration stretch_len_ = SimDuration::zero();
  /// Context-switch charge included in stretch_len_ (may be less than
  /// config_.context_switch when resuming a settled stretch).
  SimDuration stretch_cs_ = SimDuration::zero();
  sim::EventId stretch_event_{};
  /// Resume credit from the last settle: the job it belongs to and the
  /// context-switch residue it still owes.
  JobId resume_id_ = kNoJob;
  SimDuration resume_cs_ = SimDuration::zero();

  SimDuration busy_accum_ = SimDuration::zero();
  SimDuration served_accum_ = SimDuration::zero();
  SimDuration overhead_accum_ = SimDuration::zero();
  std::uint64_t next_job_ = 1;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_aborted_ = 0;
  std::uint64_t jobs_rejected_ = 0;
};

/// Measures a processor's utilization over successive sampling intervals.
class UtilizationProbe {
 public:
  UtilizationProbe(const sim::Simulator& simulator, const Processor& cpu)
      : sim_(simulator),
        cpu_(cpu),
        last_t_(simulator.now()),
        last_busy_(cpu.busyTime()) {}

  /// Utilization since the previous sample() (or construction), then resets
  /// the window. Returns zero for an empty window.
  Utilization sample();

  /// Utilization since the previous sample() without resetting.
  Utilization peek() const;

 private:
  const sim::Simulator& sim_;
  const Processor& cpu_;
  SimTime last_t_;
  SimDuration last_busy_;
};

}  // namespace rtdrm::node
