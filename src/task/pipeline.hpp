// Execution of one period of a periodic task on the simulated cluster.
//
// A PipelineRun drives the subtask chain: for each stage it ships each
// replica its 1/k share of the data stream over the Ethernet (from the
// predecessor's primary node), runs the replica's CPU job, and advances
// when every replica has finished ("the data stream is shared among
// replicas" — paper item 6). Timing is recorded both in true simulation
// time and as the run-time monitor would *measure* it with per-node
// synchronized clocks.
//
// Instances are independent: a new period may start while the previous one
// is still draining (the "asynchronous" behaviour the paper targets). A
// cutoff aborts pathological instances so overload cannot snowball forever.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "task/runtime.hpp"
#include "task/spec.hpp"

namespace rtdrm::task {

/// Timing record of one stage (subtask + its incoming messages).
struct StageRecord {
  /// When the predecessor finished and this stage's messages were enqueued.
  SimTime start;
  /// When the last replica finished executing.
  SimTime end;
  bool completed = false;
  std::size_t replicas = 1;
  /// end - start, true simulation time.
  SimDuration trueLatency() const { return end - start; }
  /// Stage latency as the monitor measures it with local clocks
  /// (start stamped on the sender node, end on the last replica's node).
  SimDuration measured_latency = SimDuration::zero();
  /// Max single-replica CPU response time within the stage.
  SimDuration worst_exec = SimDuration::zero();
  /// Node of the replica that produced worst_exec (valid when completed).
  ProcessorId worst_exec_node{};
  /// Max single-message delay within the stage (zero for stage 0).
  SimDuration worst_msg = SimDuration::zero();
  /// Max observed message buffer delay (receipt.bufferDelay()).
  SimDuration worst_msg_buffer = SimDuration::zero();
};

/// Full record of one period of one task.
struct PeriodRecord {
  std::uint64_t period_index = 0;
  DataSize workload;
  SimTime release;
  SimTime finish;
  bool completed = false;  ///< false => aborted at cutoff
  std::vector<StageRecord> stages;

  SimDuration endToEnd() const { return finish - release; }
  bool missed(SimDuration deadline) const {
    return !completed || endToEnd() > deadline;
  }
};

struct PipelineConfig {
  /// Instances still running after cutoff * period are aborted.
  double cutoff_periods = 3.0;
  /// Scheduling priority of the subtask jobs (only meaningful on
  /// SchedPolicy::kPriority nodes; lower runs first). Pair with a higher
  /// BackgroundLoadConfig::priority to isolate the task from ambient load.
  int job_priority = 0;
  /// Deadline/period metadata stamped on every CPU job for the
  /// dynamic-priority scheduling policies (EDF/RMS/LLF). `job_deadline` is
  /// the task's *relative* end-to-end deadline — each job carries the
  /// absolute release + job_deadline — and `job_period` the release
  /// period, kept in sync with the live (possibly dilated) period by the
  /// TaskRunner. zero() = no metadata; such jobs rank behind every
  /// deadline/period-carrying one on EDF/RMS/LLF nodes and the fields are
  /// ignored entirely by RR/FIFO/priority.
  SimDuration job_deadline = SimDuration::zero();
  SimDuration job_period = SimDuration::zero();
};

class PipelineRun {
 public:
  using DoneFn = std::function<void(const PeriodRecord&)>;

  /// Constructs and immediately releases the instance at sim.now().
  /// `noise_rng` must outlive the run. `on_done` fires exactly once, on
  /// completion or abort.
  PipelineRun(Runtime rt, const TaskSpec& spec, Placement placement,
              DataSize workload, std::uint64_t period_index,
              Xoshiro256& noise_rng, PipelineConfig config, DoneFn on_done);
  ~PipelineRun();
  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  bool finished() const { return finished_; }
  /// True once on_done has fired AND no delivery callback can still arrive;
  /// the owner must not destroy the run before this (closures hold `this`).
  bool safeToDestroy() const { return finished_ && inflight_msgs_ == 0; }
  const Placement& placement() const { return placement_; }

 private:
  void beginStage(std::size_t s);
  void onMessageDelivered(std::size_t s, std::size_t r,
                          SimDuration total_delay, SimDuration buffer_delay);
  void submitReplicaJob(std::size_t s, std::size_t r, SimTime exec_start);
  void onReplicaDone(std::size_t s, std::size_t r, SimTime exec_start);
  void finishStage(std::size_t s);
  void complete();
  void abortAtCutoff();
  /// Aborts every live outstanding job.
  void abortOutstandingJobs();

  Runtime rt_;
  const TaskSpec& spec_;
  Placement placement_;
  Xoshiro256& rng_;
  PipelineConfig config_;
  DoneFn on_done_;

  PeriodRecord record_;
  std::size_t pending_in_stage_ = 0;
  std::size_t current_stage_ = 0;
  /// Node whose clock stamped the current stage's start (sender side).
  ProcessorId stage_start_node_{};
  SimTime stage_start_true_;
  /// Per-replica execution start stamps for the current stage. Kept out of
  /// the completion closures so their captures fit std::function's inline
  /// buffer (stages are strictly sequential, so one vector suffices).
  std::vector<SimTime> replica_exec_start_;
  /// Diagnostic tags, one per stage, built once per run: a job or message
  /// carries a copy instead of re-concatenating per replica.
  std::vector<std::string> job_tags_;
  std::vector<std::string> msg_tags_;
  /// Outstanding CPU jobs for abort: (processor, job). Completed entries
  /// are tombstoned (processor = kNoNode) rather than erased — an erase
  /// would shift the whole tail once per completion — and `head_` skips the
  /// dead prefix. The live entries keep submission order, so "first live
  /// entry on this processor" still selects the oldest.
  std::vector<std::pair<ProcessorId, node::JobId>> outstanding_;
  std::size_t outstanding_head_ = 0;
  sim::EventId cutoff_event_{};
  std::size_t inflight_msgs_ = 0;
  bool finished_ = false;
};

}  // namespace rtdrm::task
