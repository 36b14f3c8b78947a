#include "node/processor.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/assert.hpp"

namespace rtdrm::node {

void ProcessorConfig::validate() const {
  RTDRM_ASSERT_MSG(quantum > SimDuration::zero(),
                   "quantum must be positive");
  RTDRM_ASSERT_MSG(context_switch >= SimDuration::zero(),
                   "context switch must be non-negative");
  RTDRM_ASSERT_MSG(speed > 0.0, "speed must be positive");
}

Processor::Processor(sim::Simulator& simulator, ProcessorId id,
                     ProcessorConfig config)
    : sim_(simulator), id_(id), config_(config) {
  config_.validate();
  policy_ = makeSchedulerPolicy(config_.policy);
}

SchedContext Processor::schedContext() const {
  SchedContext ctx;
  ctx.now = sim_.now();
  ctx.quantum = config_.quantum;
  ctx.context_switch = config_.context_switch;
  if (running_) {
    ctx.stretch_len = stretch_len_;
    ctx.stretch_elapsed = sim_.now() - stretch_start_;
  }
  return ctx;
}

JobId Processor::submit(Job job) {
  RTDRM_ASSERT(job.demand >= SimDuration::zero());
  if (!up_) {
    ++jobs_rejected_;
    return kNoJob;
  }
  const JobId id{next_job_++};
  // Demand is reference-speed CPU time; this node serves it at its own
  // (possibly throttled) speed, so the resident's remaining counter is
  // wall service time.
  const SimDuration wall = job.demand / (config_.speed * speed_factor_);
  Resident incoming{id, wall, std::move(job)};
  const SchedContext ctx = schedContext();
  // The running job owns the front slot (settle/abort rely on it), so an
  // arrival during a stretch may enter the waiting tail at the earliest.
  const std::size_t floor = running_ ? 1 : 0;
  std::size_t pos = policy_->insertPos(queue_, incoming, floor, ctx);
  RTDRM_ASSERT_MSG(pos >= floor && pos <= queue_.size(),
                   "insertPos out of range");
  const Resident& placed = *queue_.insert(
      queue_.begin() + static_cast<std::ptrdiff_t>(pos), std::move(incoming));
  if (!running_) {
    dispatch();
  } else if (policy_->preemptOnAdmit(queue_, placed, ctx)) {
    // The arrival outranks (or, for RR, breaks up) the running stretch:
    // settle the consumed span and decide afresh.
    settleRunningStretch();
    dispatch();
  }
  return id;
}

bool Processor::abort(JobId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) {
      continue;
    }
    const bool is_running = running_ && it == queue_.begin();
    if (is_running) {
      settleRunningStretch();
    }
    queue_.erase(it);
    ++jobs_aborted_;
    if (is_running) {
      dispatch();
    }
    return true;
  }
  return false;
}

void Processor::setUp(bool up) {
  if (up == up_) {
    return;
  }
  if (!up) {
    // Crash: whatever was resident is lost with the node's private memory.
    // No on_complete fires — submitters see their work vanish, exactly the
    // failure mode the manager's detector has to recover from.
    if (running_) {
      settleRunningStretch();
    }
    jobs_aborted_ += queue_.size();
    queue_.clear();
  }
  up_ = up;
}

void Processor::setSpeedFactor(double factor) {
  RTDRM_ASSERT(factor > 0.0);
  if (factor == speed_factor_) {
    return;
  }
  if (running_) {
    settleRunningStretch();
  }
  // Outstanding wall time was priced at the old effective speed; re-price
  // it so the remaining demand is served at the new rate from now on. Only
  // the service component scales: the context-switch residue banked by the
  // settle is fixed wall time (ProcessorConfig::context_switch semantics)
  // and carries over unchanged.
  const double scale = speed_factor_ / factor;
  for (Resident& r : queue_) {
    r.remaining = r.remaining * scale;
  }
  speed_factor_ = factor;
  dispatch();
}

SimDuration Processor::busyTime() const {
  if (!running_) {
    return busy_accum_;
  }
  // The in-flight span is not in busy_accum_ yet (the accumulator only
  // advances when a stretch terminates), so adding it here cannot double
  // count — see the invariant note in the header.
  return busy_accum_ + (sim_.now() - stretch_start_);
}

void Processor::dispatch() {
  if (running_ || queue_.empty()) {
    return;
  }
  const std::size_t pick = policy_->pickNext(queue_, schedContext());
  RTDRM_ASSERT_MSG(pick < queue_.size(), "pickNext out of range");
  if (pick != 0) {
    auto it = queue_.begin() + static_cast<std::ptrdiff_t>(pick);
    Resident r = std::move(*it);
    queue_.erase(it);
    queue_.push_front(std::move(r));
  }
  Resident& head = queue_.front();
  const SimDuration service =
      policy_->slice(head, queue_.size(), schedContext());
  // A job resuming the stretch it was settled out of only owes the
  // unconsumed residue of that stretch's context-switch charge; any other
  // pick is a fresh dispatch boundary and pays the full charge. The credit
  // is single-shot: whatever this dispatch decides voids it.
  stretch_cs_ =
      head.id == resume_id_ ? resume_cs_ : config_.context_switch;
  resume_id_ = kNoJob;
  resume_cs_ = SimDuration::zero();
  stretch_len_ = service + stretch_cs_;
  stretch_start_ = sim_.now();
  running_ = true;
  stretch_event_ =
      sim_.scheduleAfter(stretch_len_, [this] { onStretchEnd(); });
}

void Processor::onStretchEnd() {
  RTDRM_ASSERT(running_ && !queue_.empty());
  busy_accum_ += stretch_len_;
  const SimDuration service = stretch_len_ - stretch_cs_;
  served_accum_ += service;
  overhead_accum_ += stretch_cs_;
  Resident& head = queue_.front();
  head.remaining -= service;
  running_ = false;

  if (head.remaining.ms() <= kResidualEpsMs) {
    Job done = std::move(head.job);
    queue_.pop_front();
    ++jobs_completed_;
    if (done.on_complete) {
      done.on_complete();
    }
  } else if (policy_->rotateExpired() && queue_.size() > 1) {
    // Round-robin rotation: expired quantum goes to the tail.
    Resident r = std::move(queue_.front());
    queue_.pop_front();
    queue_.push_back(std::move(r));
  }
  dispatch();
}

void Processor::settleRunningStretch() {
  RTDRM_ASSERT(running_ && !queue_.empty());
  const SimDuration elapsed = sim_.now() - stretch_start_;
  busy_accum_ += elapsed;
  // The context-switch charge is consumed first (it models the overhead of
  // *entering* the stretch); only time past it is service.
  const SimDuration cs_consumed = std::min(elapsed, stretch_cs_);
  const SimDuration consumed = elapsed - cs_consumed;
  served_accum_ += consumed;
  overhead_accum_ += cs_consumed;
  queue_.front().remaining -= consumed;
  // Residual dust from floating-point subtraction: clamp within the
  // explicit tolerance so the job completes on its next stretch. Anything
  // larger than kResidualEpsMs negative would mean the stretch served more
  // than the job had — a scheduling bug, not dust.
  if (queue_.front().remaining < SimDuration::zero()) {
    RTDRM_ASSERT_MSG(queue_.front().remaining.ms() >= -Processor::kResidualEpsMs,
                     "stretch served more than the job's remaining demand");
    queue_.front().remaining = SimDuration::zero();
  }
  // Bank the unconsumed context-switch residue for the settled job: if the
  // next dispatch resumes it, continuing is not a new dispatch boundary.
  resume_id_ = queue_.front().id;
  resume_cs_ = stretch_cs_ - cs_consumed;
  sim_.cancel(stretch_event_);
  running_ = false;
}

Utilization UtilizationProbe::peek() const {
  const SimDuration window = sim_.now() - last_t_;
  if (window <= SimDuration::zero()) {
    return Utilization::zero();
  }
  const SimDuration busy = cpu_.busyTime() - last_busy_;
  return Utilization::fraction(busy / window);
}

Utilization UtilizationProbe::sample() {
  const Utilization u = peek();
  last_t_ = sim_.now();
  last_busy_ = cpu_.busyTime();
  return u;
}

}  // namespace rtdrm::node
