// The decentralized management plane: per-partition manager endpoints,
// gossip, election, failover.
//
// The paper's supervisory ResourceManager makes every Fig.-5/Fig.-7
// decision from one place — a single point of failure. This plane splits
// the management *state* over M manager endpoints, each owning a
// contiguous node-block partition (the floor(i*M/N) block mapping):
//
//   * every live endpoint samples its own partition's utilization
//     privately each gossip interval and broadcasts a
//     net::PartitionSummary to the other endpoints over the shared
//     network substrate (real wire traffic; the payload rides in the closure like
//     every other message in src/net);
//   * exactly one endpoint is the *active* manager: only it publishes
//     received summaries into the cluster view the allocators read, and
//     only it may apply decisions — a decision gate installed on the
//     adopted ResourceManager suppresses the monitor/allocator half of
//     every period while no live active exists;
//   * the active is a first-class fault target: fault::FaultPlan's
//     ManagerCrashFault kills it through setManagerUp(), a heartbeat
//     fault::FailureDetector (target mode) monitoring the endpoints
//     declares it dead after its timeout/retry/backoff, and the plane
//     then elects the lowest-indexed live standby, which rebuilds the
//     cluster view from its stored gossip summaries (+ the gossiped
//     ledger record), resets stale slack streaks, re-derives budgets and
//     drains node failures queued during the gap.
//
// Staleness is bounded: the invariant oracle asserts (via
// worstViewAgeMs()) that no summary the active decides on is older than
// config.staleness_bound, with a one-bound grace window whenever an
// origin endpoint (or its host node) comes back up.
//
// With managers == 1 the plane constructs nothing, schedules nothing and
// sends nothing: adopt() installs no gate and leaves the manager sampling
// the cluster itself, so the run is bit-for-bit identical to the legacy
// centralized path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/network_model.hpp"
#include "net/gossip.hpp"
#include "node/cluster.hpp"
#include "obs/record.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::obs {
struct Observability;
class MetricsRegistry;
}  // namespace rtdrm::obs

namespace rtdrm::core {

class ResourceManager;

struct PlaneConfig {
  /// Manager endpoints; 1 = the legacy centralized plane (no gossip, no
  /// gate, bit-for-bit identical behavior).
  std::size_t managers = 1;
  /// Gossip broadcast cadence per endpoint.
  SimDuration gossip_interval = SimDuration::millis(50.0);
  /// Maximum age any summary in the active's view may reach (enforced by
  /// the invariant oracle). Must comfortably exceed gossip_interval plus
  /// wire time; the default is 4 intervals.
  SimDuration staleness_bound = SimDuration::millis(200.0);
  /// Simulated wire footprint of one summary: base + per_node * partition
  /// size (the data itself travels in the message closure).
  Bytes gossip_base_bytes = Bytes::of(96.0);
  Bytes gossip_per_node_bytes = Bytes::of(12.0);

  /// `managers` endpoints gossiping at a fifth of `task_period`, with a
  /// staleness bound of four gossip intervals (0.8 task periods).
  static PlaneConfig scaledTo(SimDuration task_period, std::size_t managers);

  /// Aborts on fewer than one manager, a non-positive gossip interval, or
  /// a staleness bound that does not exceed the gossip interval.
  void validate() const;
};

class ManagementPlane {
 public:
  enum class Role : std::uint8_t { kActive, kStandby, kDown };

  /// `manager` index meaning "no live active exists" (headless gap).
  static constexpr std::uint32_t kNoManager = 0xffffffffu;

  ManagementPlane(sim::Simulator& simulator, net::NetworkModel& network,
                  node::Cluster& cluster, PlaneConfig config);
  ManagementPlane(const ManagementPlane&) = delete;
  ManagementPlane& operator=(const ManagementPlane&) = delete;

  /// Hands the (single, shared) ResourceManager to the plane: installs the
  /// decision gate, switches the manager to external (gossip-published)
  /// sampling, and stamps decision provenance into the audit trace. No-op
  /// with managers == 1. Call before start(); the manager must outlive
  /// the plane.
  void adopt(ResourceManager& manager);

  /// First gossip round at `at`, then every interval. No-op with
  /// managers == 1.
  void start(SimTime at);
  /// Stops gossip and closes any open decision-gap window.
  void stop();

  // ---- fault wiring ------------------------------------------------------
  /// Ground-truth crash/restart edge (FaultInjector::setManagerFaultTarget
  /// binds here). A crashed endpoint stops gossiping and acking instantly;
  /// if it was the active, decisions stop with it and the gap opens.
  void setManagerUp(std::uint32_t manager, bool up);
  /// Detector belief: `manager` was declared dead. Deposes it; if it was
  /// the active, elects the lowest-indexed live standby (or goes headless
  /// when none is left).
  void onManagerSuspected(std::uint32_t manager);
  /// Detector belief: `manager` acked again. Rejoins it as a standby and
  /// triggers an election if the plane was headless.
  void onManagerRecovered(std::uint32_t manager);

  // ---- node-failure routing (episode wiring sends the node detector's
  // callbacks through here when managers > 1) -----------------------------
  /// Forwarded to the active manager when one exists; queued during the
  /// gap and drained (still-down nodes only) by the next election.
  void handleNodeFailure(ProcessorId dead);
  void handleNodeRestart(ProcessorId node);

  // ---- introspection (oracle + tests) ------------------------------------
  std::size_t managerCount() const { return config_.managers; }
  const PlaneConfig& config() const { return config_; }
  bool enabled() const { return config_.managers > 1; }
  /// True while a live active manager owns decisions.
  bool decisionsAllowed() const {
    return !enabled() || (active_ != kNoManager && up_[active_]);
  }
  std::uint32_t activeManager() const { return active_; }
  Role roleOf(std::uint32_t manager) const { return roles_[manager]; }
  bool managerUp(std::uint32_t manager) const { return up_[manager]; }
  std::size_t activeCount() const;
  /// Node block [first, last) owned by `manager`, and the node hosting
  /// its endpoint (the block's first node).
  std::pair<std::size_t, std::size_t> partitionOf(
      std::uint32_t manager) const;
  ProcessorId hostOf(std::uint32_t manager) const;
  /// True when `manager`'s endpoint is able to gossip right now (endpoint
  /// up and host node up).
  bool endpointReachable(std::uint32_t manager) const;

  /// Worst age (ms) across the summaries the active currently decides on;
  /// 0 during the gap or with managers == 1. Origins whose endpoint or
  /// host is down — or that came back up less than one staleness bound
  /// ago — are excused (their absence is the failure detector's problem,
  /// not a staleness violation). Also folds the result into
  /// maxStalenessObservedMs().
  double worstViewAgeMs() const;

  std::uint64_t gossipRounds() const { return gossip_rounds_; }
  std::uint64_t gossipMessagesSent() const { return gossip_messages_sent_; }
  std::uint64_t summariesApplied() const { return summaries_applied_; }
  std::uint64_t elections() const { return elections_; }
  std::uint64_t epoch() const { return epoch_; }
  /// Total time (ms) decisions were suppressed because no live active
  /// existed (crash -> election, plus any headless tail).
  double decisionGapMs() const { return decision_gap_ms_; }
  double maxStalenessObservedMs() const { return max_staleness_observed_ms_; }
  /// Ledger record (tracks) the most recent election rebuilt from gossip.
  double rebuiltLedgerTracks() const { return rebuilt_ledger_tracks_; }
  std::size_t pendingNodeFailures() const { return pending_failures_.size(); }

  /// Optional audit-trace sink (must outlive the plane).
  void attachObs(obs::Observability& o);
  /// Publishes plane counters into `reg` under "plane." names.
  void exportMetrics(obs::MetricsRegistry& reg) const;

 private:
  /// One endpoint's knowledge of one origin's latest summary.
  struct ViewRow {
    std::uint64_t seq = 0;  ///< 0 = nothing received yet
    SimTime sampled_at = SimTime::zero();
    std::vector<double> utilization;
    double ledger_tracks = 0.0;
  };

  void gossipTick();
  void broadcast(std::uint32_t origin);
  void receive(std::uint32_t receiver, const net::PartitionSummary& summary);
  /// Publishes `row`'s utilizations into the cluster view (active only).
  void publishRow(std::uint32_t origin, const ViewRow& row);
  void elect();
  void openGap();
  void closeGap();
  void drainPendingFailures();
  void obsRecord(obs::RecordKind kind, std::uint32_t node, double a,
                 double b = 0.0, double c = 0.0) const;
  double currentLedgerTracks() const;

  sim::Simulator& sim_;
  net::NetworkModel& net_;
  node::Cluster& cluster_;
  PlaneConfig config_;
  ResourceManager* manager_ = nullptr;
  obs::Observability* obs_ = nullptr;

  std::vector<std::uint8_t> up_;  ///< ground-truth endpoint liveness
  std::vector<Role> roles_;
  std::uint32_t active_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> send_seq_;  ///< per-origin broadcast counter
  /// views_[receiver * M + origin]: newest summary `receiver` holds from
  /// `origin`.
  std::vector<ViewRow> views_;
  sim::PeriodicActivity ticker_;
  bool running_ = false;

  // Gap accounting.
  bool gap_open_ = false;
  SimTime gap_since_ = SimTime::zero();
  double decision_gap_ms_ = 0.0;
  std::vector<ProcessorId> pending_failures_;

  // Staleness bookkeeping (mutable: worstViewAgeMs() is a const oracle
  // query that performs lazy up-edge detection in event order).
  mutable std::vector<std::uint8_t> eligible_was_;
  mutable std::vector<SimTime> enforce_after_;
  mutable bool active_was_reachable_ = true;
  mutable double max_staleness_observed_ms_ = 0.0;

  std::vector<Utilization> sample_scratch_;
  std::uint64_t gossip_rounds_ = 0;
  std::uint64_t gossip_messages_sent_ = 0;
  std::uint64_t summaries_applied_ = 0;
  std::uint64_t elections_ = 0;
  double rebuilt_ledger_tracks_ = 0.0;
};

}  // namespace rtdrm::core
