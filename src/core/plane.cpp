#include "core/plane.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/manager.hpp"
#include "obs/obs.hpp"

namespace rtdrm::core {

PlaneConfig PlaneConfig::scaledTo(SimDuration task_period,
                                  std::size_t managers) {
  PlaneConfig pc;
  pc.managers = managers;
  pc.gossip_interval = task_period * 0.2;
  pc.staleness_bound = task_period * 0.8;
  return pc;
}

void PlaneConfig::validate() const {
  RTDRM_ASSERT_MSG(managers >= 1, "plane needs at least one manager");
  RTDRM_ASSERT_MSG(gossip_interval > SimDuration::zero(),
                   "gossip interval must be positive");
  RTDRM_ASSERT_MSG(staleness_bound > gossip_interval,
                   "staleness bound must exceed the gossip interval");
}

ManagementPlane::ManagementPlane(sim::Simulator& simulator,
                                 net::NetworkModel& network,
                                 node::Cluster& cluster, PlaneConfig config)
    : sim_(simulator),
      net_(network),
      cluster_(cluster),
      config_(config),
      ticker_(simulator, config.gossip_interval,
              [this](std::uint64_t) { gossipTick(); }) {
  config_.validate();
  RTDRM_ASSERT_MSG(config_.managers <= cluster.size(),
                   "more managers than nodes");
  const std::size_t m = config_.managers;
  up_.assign(m, 1);
  roles_.assign(m, Role::kStandby);
  roles_[0] = Role::kActive;
  active_ = 0;
  send_seq_.assign(m, 0);
  views_.resize(m * m);
  eligible_was_.assign(m, 0);
  enforce_after_.assign(m, SimTime::zero());
}

std::pair<std::size_t, std::size_t> ManagementPlane::partitionOf(
    std::uint32_t manager) const {
  // Balanced node blocks via the floor(i*M/N) mapping: node i belongs to
  // manager i*M/N.
  const std::size_t n = cluster_.size();
  const std::size_t m = config_.managers;
  const std::size_t lo = (manager * n + m - 1) / m;
  const std::size_t hi = ((manager + 1) * n + m - 1) / m;
  return {lo, hi};
}

ProcessorId ManagementPlane::hostOf(std::uint32_t manager) const {
  return ProcessorId{static_cast<std::uint32_t>(partitionOf(manager).first)};
}

bool ManagementPlane::endpointReachable(std::uint32_t manager) const {
  return up_[manager] != 0 && cluster_.isUp(hostOf(manager));
}

std::size_t ManagementPlane::activeCount() const {
  std::size_t n = 0;
  for (const Role r : roles_) {
    n += r == Role::kActive ? 1 : 0;
  }
  return n;
}

void ManagementPlane::adopt(ResourceManager& manager) {
  RTDRM_ASSERT_MSG(manager_ == nullptr, "plane already adopted a manager");
  manager_ = &manager;
  if (!enabled()) {
    // Centralized: install nothing at all — the manager keeps sampling the
    // cluster itself and no gate/provenance hook ever runs, so the episode
    // is bit-for-bit identical to a build without the plane.
    return;
  }
  manager.setExternalSampling(true);
  manager.setDecisionGate([this] {
    if (decisionsAllowed()) {
      return true;
    }
    obsRecord(obs::RecordKind::kDecisionSuppressed, obs::kRecordNoNode,
              active_ == kNoManager ? -1.0 : static_cast<double>(active_));
    return false;
  });
  manager.setDecisionOwnerFn([this] {
    obsRecord(obs::RecordKind::kDecisionOwner, obs::kRecordNoNode,
              static_cast<double>(active_), static_cast<double>(epoch_));
  });
}

void ManagementPlane::start(SimTime at) {
  if (!enabled()) {
    return;
  }
  RTDRM_ASSERT_MSG(manager_ != nullptr, "adopt() a manager before start()");
  running_ = true;
  std::fill(eligible_was_.begin(), eligible_was_.end(), 0);
  active_was_reachable_ = true;
  ticker_.start(at);
}

void ManagementPlane::stop() {
  if (!enabled() || !running_) {
    return;
  }
  running_ = false;
  closeGap();
  ticker_.stop();
}

void ManagementPlane::setManagerUp(std::uint32_t manager, bool up) {
  RTDRM_ASSERT(manager < config_.managers);
  if ((up_[manager] != 0) == up) {
    return;
  }
  up_[manager] = up ? 1 : 0;
  if (!up && manager == active_) {
    // Decisions stop the instant the active dies; the gap runs until a
    // standby is elected (detection latency included, by construction).
    openGap();
  }
  // A restarted endpoint resumes gossiping on the next round; it rejoins
  // the election candidate pool only once the detector sees its acks
  // (onManagerRecovered) — belief, not ground truth, drives elections.
}

void ManagementPlane::onManagerSuspected(std::uint32_t manager) {
  RTDRM_ASSERT(manager < config_.managers);
  obsRecord(obs::RecordKind::kManagerDown, hostOf(manager).value,
            static_cast<double>(manager));
  roles_[manager] = Role::kDown;
  if (manager == active_) {
    elect();
  }
}

void ManagementPlane::onManagerRecovered(std::uint32_t manager) {
  RTDRM_ASSERT(manager < config_.managers);
  obsRecord(obs::RecordKind::kManagerRestart, hostOf(manager).value,
            static_cast<double>(manager));
  if (roles_[manager] == Role::kDown) {
    roles_[manager] = Role::kStandby;
  }
  if (active_ == kNoManager) {
    // The plane was headless; the rejoined standby can take over.
    elect();
  }
}

void ManagementPlane::elect() {
  std::uint32_t candidate = kNoManager;
  for (std::uint32_t m = 0; m < config_.managers; ++m) {
    if (roles_[m] != Role::kDown && up_[m] != 0 &&
        cluster_.isUp(hostOf(m)) && m != active_) {
      candidate = m;
      break;
    }
  }
  const std::uint32_t old = active_;
  if (candidate == kNoManager) {
    // Headless: nobody may decide until an endpoint rejoins.
    if (old != kNoManager) {
      openGap();
    }
    active_ = kNoManager;
    RTDRM_LOG(kDebug) << "plane: headless (no electable standby)";
    return;
  }
  ++epoch_;
  ++elections_;
  active_ = candidate;
  roles_[candidate] = Role::kActive;
  RTDRM_LOG(kDebug) << "plane: manager " << candidate
                    << " elected active (epoch " << epoch_ << ")";
  obsRecord(obs::RecordKind::kElection, hostOf(candidate).value,
            static_cast<double>(epoch_), static_cast<double>(candidate));

  // The new active rebuilds the published cluster view from the summaries
  // it accumulated as a standby (gossip replay) and takes over the ledger
  // record carried by the freshest one.
  SimTime freshest = SimTime::zero();
  for (std::uint32_t origin = 0; origin < config_.managers; ++origin) {
    const ViewRow& row = views_[candidate * config_.managers + origin];
    if (row.seq == 0) {
      continue;
    }
    publishRow(origin, row);
    if (row.sampled_at >= freshest) {
      freshest = row.sampled_at;
      rebuilt_ledger_tracks_ = row.ledger_tracks;
    }
  }
  // The takeover gets one staleness bound to converge its view before the
  // oracle enforces the bound again.
  const SimTime grace = sim_.now() + config_.staleness_bound;
  std::fill(enforce_after_.begin(), enforce_after_.end(), grace);
  std::fill(eligible_was_.begin(), eligible_was_.end(), 1);
  active_was_reachable_ = true;

  closeGap();
  if (manager_ != nullptr) {
    manager_->resumeControl();
  }
  drainPendingFailures();
}

void ManagementPlane::openGap() {
  if (!gap_open_) {
    gap_open_ = true;
    gap_since_ = sim_.now();
  }
}

void ManagementPlane::closeGap() {
  if (gap_open_) {
    decision_gap_ms_ += (sim_.now() - gap_since_).ms();
    gap_open_ = false;
  }
}

void ManagementPlane::handleNodeFailure(ProcessorId dead) {
  if (decisionsAllowed() && manager_ != nullptr) {
    manager_->handleNodeFailure(dead);
    return;
  }
  // Nobody owns decisions right now: remember the death; the next elected
  // manager repairs placements for nodes still down at takeover.
  if (std::find(pending_failures_.begin(), pending_failures_.end(), dead) ==
      pending_failures_.end()) {
    pending_failures_.push_back(dead);
  }
}

void ManagementPlane::handleNodeRestart(ProcessorId node) {
  if (decisionsAllowed() && manager_ != nullptr) {
    manager_->handleNodeRestart(node);
  }
}

void ManagementPlane::drainPendingFailures() {
  if (manager_ == nullptr) {
    pending_failures_.clear();
    return;
  }
  for (const ProcessorId p : pending_failures_) {
    // A node that restarted during the gap needs no repair (and the
    // manager asserts the node is masked when handling a failure).
    if (!cluster_.isUp(p)) {
      manager_->handleNodeFailure(p);
    }
  }
  pending_failures_.clear();
}

void ManagementPlane::gossipTick() {
  ++gossip_rounds_;
  for (std::uint32_t m = 0; m < config_.managers; ++m) {
    if (endpointReachable(m)) {
      broadcast(m);
    }
  }
}

void ManagementPlane::broadcast(std::uint32_t origin) {
  const auto [lo, hi] = partitionOf(origin);
  cluster_.samplePartitionInto(lo, hi, sample_scratch_);

  net::PartitionSummary summary;
  summary.manager = origin;
  summary.epoch = epoch_;
  summary.seq = ++send_seq_[origin];
  summary.sampled_at = sim_.now();
  summary.first_node = static_cast<std::uint32_t>(lo);
  summary.utilization.resize(hi - lo);
  for (std::size_t i = 0; i < hi - lo; ++i) {
    summary.utilization[i] = sample_scratch_[i].value();
  }
  summary.ledger_tracks = currentLedgerTracks();
  obsRecord(obs::RecordKind::kGossipRound, hostOf(origin).value,
            static_cast<double>(origin), static_cast<double>(summary.seq));

  // The origin's own view never crosses the wire.
  receive(origin, summary);

  const Bytes wire = net::gossipWireBytes(config_.gossip_base_bytes,
                                          config_.gossip_per_node_bytes,
                                          hi - lo);
  for (std::uint32_t r = 0; r < config_.managers; ++r) {
    if (r == origin) {
      continue;
    }
    net::Message msg;
    msg.src = hostOf(origin);
    msg.dst = hostOf(r);
    msg.payload = wire;
    msg.tag = "gossip";
    // Liveness at *delivery*: a receiver that died (or whose host node
    // died) while the summary was on the wire never sees it.
    msg.on_delivered = [this, r, summary](const net::MessageReceipt&) {
      if (endpointReachable(r)) {
        receive(r, summary);
      }
    };
    net_.send(std::move(msg));
    ++gossip_messages_sent_;
  }
}

void ManagementPlane::receive(std::uint32_t receiver,
                              const net::PartitionSummary& summary) {
  ViewRow& row = views_[receiver * config_.managers + summary.manager];
  if (summary.seq <= row.seq) {
    return;  // reordered or duplicated: the newer summary already landed
  }
  row.seq = summary.seq;
  row.sampled_at = summary.sampled_at;
  row.utilization = summary.utilization;
  row.ledger_tracks = summary.ledger_tracks;
  ++summaries_applied_;
  if (receiver == active_ && decisionsAllowed()) {
    publishRow(summary.manager, row);
    obsRecord(obs::RecordKind::kGossipApply, obs::kRecordNoNode,
              static_cast<double>(summary.manager),
              static_cast<double>(summary.seq),
              (sim_.now() - summary.sampled_at).ms());
  }
}

void ManagementPlane::publishRow(std::uint32_t origin, const ViewRow& row) {
  const auto [lo, hi] = partitionOf(origin);
  RTDRM_ASSERT(row.utilization.size() == hi - lo);
  for (std::size_t i = 0; i < row.utilization.size(); ++i) {
    cluster_.applyGossipSample(
        ProcessorId{static_cast<std::uint32_t>(lo + i)},
        Utilization::fraction(row.utilization[i]));
  }
}

double ManagementPlane::worstViewAgeMs() const {
  if (!enabled() || !running_) {
    return 0.0;
  }
  if (!decisionsAllowed()) {
    // The gap: nobody decides, so nothing to bound — but the view also
    // cannot refresh (a downed active neither broadcasts nor receives), so
    // whoever owns decisions next gets a fresh grace window. This covers
    // the active endpoint crashing and restarting *without* an election in
    // between: the rows it left behind are one outage old.
    active_was_reachable_ = false;
    return 0.0;
  }
  const SimTime now = sim_.now();
  if (!cluster_.isUp(hostOf(active_))) {
    // The active's host is off the wire: its view cannot refresh, and the
    // manager detector is what will resolve this (declare + elect). The
    // window until then is excused, with a fresh grace once reachable.
    active_was_reachable_ = false;
    return 0.0;
  }
  if (!active_was_reachable_) {
    active_was_reachable_ = true;
    const SimTime grace = now + config_.staleness_bound;
    std::fill(enforce_after_.begin(), enforce_after_.end(), grace);
  }
  double worst = 0.0;
  for (std::uint32_t m = 0; m < config_.managers; ++m) {
    if (!endpointReachable(m)) {
      // A dead origin stops gossiping by design; its partition's decay is
      // the failure detector's problem, not a staleness violation.
      eligible_was_[m] = 0;
      continue;
    }
    if (eligible_was_[m] == 0) {
      // Up-edge (start, endpoint restart, or host-node restart): one
      // bound of grace to get a summary onto the wire and delivered.
      eligible_was_[m] = 1;
      enforce_after_[m] = now + config_.staleness_bound;
    }
    if (now < enforce_after_[m]) {
      continue;
    }
    const ViewRow& row = views_[active_ * config_.managers + m];
    worst = std::max(worst, (now - row.sampled_at).ms());
  }
  max_staleness_observed_ms_ = std::max(max_staleness_observed_ms_, worst);
  return worst;
}

double ManagementPlane::currentLedgerTracks() const {
  if (manager_ == nullptr) {
    return 0.0;
  }
  return manager_->runner().currentWorkload().count();
}

void ManagementPlane::attachObs(obs::Observability& o) {
  RTDRM_ASSERT_MSG(obs_ == nullptr, "observability already attached");
  obs_ = &o;
}

void ManagementPlane::obsRecord(obs::RecordKind kind, std::uint32_t node,
                                double a, double b, double c) const {
  if (obs_ != nullptr) {
    obs_->trace.record(kind, 0, 0, node, a, b, c);
  }
}

void ManagementPlane::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("plane.gossip_rounds").set(gossip_rounds_);
  reg.counter("plane.gossip_messages_sent").set(gossip_messages_sent_);
  reg.counter("plane.summaries_applied").set(summaries_applied_);
  reg.counter("plane.elections").set(elections_);
  reg.counter("plane.epoch").set(epoch_);
  reg.gauge("plane.decision_gap_ms").set(decision_gap_ms_);
  reg.gauge("plane.max_staleness_observed_ms")
      .set(max_staleness_observed_ms_);
  reg.gauge("plane.managers").set(static_cast<double>(config_.managers));
}

}  // namespace rtdrm::core
