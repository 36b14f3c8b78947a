#include "task/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace rtdrm::task {

PipelineRun::PipelineRun(Runtime rt, const TaskSpec& spec,
                         Placement placement, DataSize workload,
                         std::uint64_t period_index, Xoshiro256& noise_rng,
                         PipelineConfig config, DoneFn on_done)
    : rt_(rt),
      spec_(spec),
      placement_(std::move(placement)),
      rng_(noise_rng),
      config_(config),
      on_done_(std::move(on_done)) {
  RTDRM_ASSERT(placement_.stageCount() == spec_.stageCount());
  record_.period_index = period_index;
  record_.workload = workload;
  record_.release = rt_.sim.now();
  record_.stages.resize(spec_.stageCount());
  // Tags are diagnostic-only (never interpreted); build them once per run,
  // not once per replica — at 256 nodes a stage submits hundreds of jobs.
  job_tags_.reserve(spec_.stageCount());
  for (const SubtaskSpec& st : spec_.subtasks) {
    job_tags_.push_back(spec_.name + "/" + st.name);
  }
  msg_tags_.reserve(spec_.stageCount());
  for (std::size_t s = 1; s < spec_.stageCount(); ++s) {
    msg_tags_.push_back(spec_.name + "/m" + std::to_string(s));
  }
  cutoff_event_ = rt_.sim.scheduleAfter(
      spec_.period * config_.cutoff_periods, [this] { abortAtCutoff(); });
  beginStage(0);
}

PipelineRun::~PipelineRun() {
  if (!finished_) {
    rt_.sim.cancel(cutoff_event_);
    abortOutstandingJobs();
    finished_ = true;
  }
  // Message-delivery closures hold a raw `this`; the TaskRunner contract is
  // that runs are only destroyed after on_done fired AND in-flight
  // deliveries were drained or the whole simulator is being torn down.
}

void PipelineRun::abortOutstandingJobs() {
  for (std::size_t i = outstanding_head_; i < outstanding_.size(); ++i) {
    const ProcessorId pid = outstanding_[i].first;
    if (pid != kNoNode) {
      rt_.cluster.processor(pid).abort(outstanding_[i].second);
    }
  }
}

void PipelineRun::beginStage(std::size_t s) {
  current_stage_ = s;
  const ReplicaSet& rs = placement_.stage(s);
  const std::size_t k = rs.size();
  StageRecord& rec = record_.stages[s];
  rec.start = rt_.sim.now();
  rec.replicas = k;
  pending_in_stage_ = k;
  stage_start_true_ = rt_.sim.now();

  replica_exec_start_.assign(k, SimTime{});

  if (s == 0) {
    // Sensor data is resident on the first subtask's node(s); no wire hop.
    stage_start_node_ = rs.primary();
    for (std::size_t r = 0; r < k; ++r) {
      submitReplicaJob(s, r, rt_.sim.now());
    }
    return;
  }

  // Ship each replica its 1/k share of the stream from the predecessor's
  // primary node (paper §4.2.1.3: replicas share the data stream; each
  // message now transports 1/k of the total data).
  const ProcessorId from = placement_.stage(s - 1).primary();
  stage_start_node_ = from;
  const DataSize share = record_.workload / static_cast<double>(k);
  const Bytes payload =
      Bytes::of(share.count() * spec_.messages[s - 1].bytes_per_track);
  for (std::size_t r = 0; r < k; ++r) {
    const ProcessorId to = rs.nodes()[r];
    // 16-byte capture: fits std::function's inline buffer, so the hot path
    // stays allocation-free (hundreds of messages per stage at 256 nodes).
    const auto s32 = static_cast<std::uint32_t>(s);
    const auto r32 = static_cast<std::uint32_t>(r);
    rt_.net.send(net::Message{
        from, to, payload, msg_tags_[s - 1],
        [this, s32, r32](const net::MessageReceipt& receipt) {
          RTDRM_ASSERT(inflight_msgs_ > 0);
          --inflight_msgs_;
          if (finished_) {
            return;  // aborted while the frame was in flight
          }
          onMessageDelivered(s32, r32, receipt.totalDelay(),
                             receipt.bufferDelay());
        }});
    ++inflight_msgs_;
  }
}

void PipelineRun::onMessageDelivered(std::size_t s, std::size_t r,
                                     SimDuration total_delay,
                                     SimDuration buffer_delay) {
  StageRecord& rec = record_.stages[s];
  rec.worst_msg = std::max(rec.worst_msg, total_delay);
  rec.worst_msg_buffer = std::max(rec.worst_msg_buffer, buffer_delay);
  submitReplicaJob(s, r, rt_.sim.now());
}

void PipelineRun::submitReplicaJob(std::size_t s, std::size_t r,
                                   SimTime exec_start) {
  const ReplicaSet& rs = placement_.stage(s);
  const ProcessorId pid = rs.nodes()[r];
  const DataSize share =
      record_.workload / static_cast<double>(rs.size());
  const SubtaskSpec& st = spec_.subtasks[s];
  const SimDuration demand =
      st.cost.demand(share) * rng_.lognormalUnitMean(st.noise_sigma);
  // The start stamp lives in replica_exec_start_ so the completion capture
  // is 16 bytes and std::function stores it inline (no allocation per job).
  replica_exec_start_[r] = exec_start;
  const auto s32 = static_cast<std::uint32_t>(s);
  const auto r32 = static_cast<std::uint32_t>(r);
  // Dynamic-priority metadata: the job's absolute deadline is this
  // instance's release plus the task's relative deadline (EDF/LLF rank),
  // its period the live release cadence (RMS rank). Zero config = no
  // metadata, matching jobs from sources without timing contracts.
  const SimTime job_deadline = config_.job_deadline > SimDuration::zero()
                                   ? record_.release + config_.job_deadline
                                   : SimTime::zero();
  const node::JobId jid = rt_.cluster.processor(pid).submit(node::Job{
      demand,
      [this, s32, r32] { onReplicaDone(s32, r32, replica_exec_start_[r32]); },
      job_tags_[s], config_.job_priority, job_deadline, config_.job_period});
  outstanding_.emplace_back(pid, jid);
}

void PipelineRun::onReplicaDone(std::size_t s, std::size_t r,
                                SimTime exec_start) {
  if (finished_) {
    return;
  }
  const ProcessorId pid = placement_.stage(s).nodes()[r];
  // Drop the bookkeeping entry (jobs finish roughly in submission order, so
  // a linear scan from the live head is cheap). Tombstone instead of erase:
  // erasing would shift the tail on every completion.
  for (std::size_t i = outstanding_head_; i < outstanding_.size(); ++i) {
    if (outstanding_[i].first == pid) {
      // Conservative: the first live entry on this processor is the oldest.
      outstanding_[i].first = kNoNode;
      break;
    }
  }
  while (outstanding_head_ < outstanding_.size() &&
         outstanding_[outstanding_head_].first == kNoNode) {
    ++outstanding_head_;
  }
  StageRecord& rec = record_.stages[s];
  const SimDuration exec = rt_.sim.now() - exec_start;
  if (exec >= rec.worst_exec) {
    rec.worst_exec = exec;
    rec.worst_exec_node = pid;
  }
  RTDRM_ASSERT(pending_in_stage_ > 0);
  if (--pending_in_stage_ == 0) {
    rec.end = rt_.sim.now();
    rec.completed = true;
    // What the monitor would measure with local clocks: start stamped on
    // the sender node, end on the last-finishing replica's node.
    rec.measured_latency = rt_.clocks.measure(stage_start_node_,
                                              stage_start_true_, pid,
                                              rt_.sim.now());
    finishStage(s);
  }
}

void PipelineRun::finishStage(std::size_t s) {
  if (s + 1 < spec_.stageCount()) {
    beginStage(s + 1);
  } else {
    complete();
  }
}

void PipelineRun::complete() {
  rt_.sim.cancel(cutoff_event_);
  record_.finish = rt_.sim.now();
  record_.completed = true;
  finished_ = true;
  on_done_(record_);
}

void PipelineRun::abortAtCutoff() {
  abortOutstandingJobs();
  outstanding_.clear();
  outstanding_head_ = 0;
  record_.finish = rt_.sim.now();
  record_.completed = false;
  finished_ = true;
  on_done_(record_);
}

}  // namespace rtdrm::task
