#include "fault/injector.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace rtdrm::fault {

FaultInjector::FaultInjector(sim::Simulator& simulator,
                             node::Cluster& cluster,
                             net::NetworkModel* network,
                             net::ClockFabric* clocks, FaultPlan plan)
    : sim_(simulator),
      cluster_(cluster),
      network_(network),
      clocks_(clocks),
      plan_(std::move(plan)),
      rng_(plan_.seed) {}

FaultInjector::~FaultInjector() {
  if (hook_installed_) {
    network_->setFrameFateHook(nullptr);
  }
}

void FaultInjector::setManagerFaultTarget(
    std::size_t manager_count, std::function<void(std::uint32_t, bool)> fn) {
  RTDRM_ASSERT_MSG(!armed_, "manager fault target must precede arm()");
  RTDRM_ASSERT(manager_count > 0);
  RTDRM_ASSERT(fn != nullptr);
  manager_count_ = manager_count;
  manager_fault_fn_ = std::move(fn);
}

void FaultInjector::arm() {
  RTDRM_ASSERT_MSG(!armed_, "fault plan already armed");
  armed_ = true;
  plan_.validate(cluster_.size(), manager_count_);

  for (const CrashFault& c : plan_.crashes) {
    sim_.scheduleAt(c.at, [this, c] {
      cluster_.setNodeUp(c.node, false);
      ++crashes_injected_;
      RTDRM_LOG(kDebug) << "fault: node " << c.node.value << " crashed";
      if (observer_ != nullptr) {
        observer_->onCrash(c.node, sim_.now());
      }
    });
    if (c.restart_at.has_value()) {
      sim_.scheduleAt(*c.restart_at, [this, c] {
        cluster_.setNodeUp(c.node, true);
        ++restarts_injected_;
        RTDRM_LOG(kDebug) << "fault: node " << c.node.value << " restarted";
        if (observer_ != nullptr) {
          observer_->onRestart(c.node, sim_.now());
        }
      });
    }
  }

  for (const ThrottleFault& t : plan_.throttles) {
    // Overlapping windows on one node apply last-write-wins per edge; the
    // fuzzer generates at most one window per node.
    sim_.scheduleAt(t.from, [this, t] {
      cluster_.processor(t.node).setSpeedFactor(t.factor);
      ++throttle_edges_;
    });
    sim_.scheduleAt(t.until, [this, t] {
      cluster_.processor(t.node).setSpeedFactor(1.0);
      ++throttle_edges_;
    });
  }

  if (!plan_.clock_outages.empty()) {
    RTDRM_ASSERT_MSG(clocks_ != nullptr,
                     "clock outages need a clock fabric");
    // Overlap-safe: the service is down while any window is open. The
    // counter lives on the heap so the lambdas stay copyable.
    auto active = std::make_shared<int>(0);
    for (const ClockOutage& o : plan_.clock_outages) {
      sim_.scheduleAt(o.from, [this, active] {
        if (++*active == 1) {
          clocks_->setSyncEnabled(false);
        }
      });
      sim_.scheduleAt(o.until, [this, active] {
        if (--*active == 0) {
          clocks_->setSyncEnabled(true);
        }
      });
    }
  }

  for (const ManagerCrashFault& m : plan_.manager_crashes) {
    sim_.scheduleAt(m.at, [this, m] {
      manager_fault_fn_(m.manager, false);
      ++manager_crashes_injected_;
      RTDRM_LOG(kDebug) << "fault: manager " << m.manager << " crashed";
      if (observer_ != nullptr) {
        observer_->onManagerCrash(m.manager, sim_.now());
      }
    });
    if (m.restart_at.has_value()) {
      sim_.scheduleAt(*m.restart_at, [this, m] {
        manager_fault_fn_(m.manager, true);
        ++manager_restarts_injected_;
        RTDRM_LOG(kDebug) << "fault: manager " << m.manager << " restarted";
        if (observer_ != nullptr) {
          observer_->onManagerRestart(m.manager, sim_.now());
        }
      });
    }
  }

  if (!plan_.links.empty()) {
    RTDRM_ASSERT_MSG(network_ != nullptr, "link faults need a network");
    hook_installed_ = true;
    network_->setFrameFateHook(
        [this](const net::FrameHop& hop) { return decideFrameFate(hop); });
  }
}

net::FrameFate FaultInjector::decideFrameFate(const net::FrameHop& hop) {
  const SimTime now = sim_.now();
  for (const LinkFault& l : plan_.links) {
    const bool src_match = l.src == kAnyNode || l.src == hop.src;
    const bool dst_match = l.dst == kAnyNode || l.dst == hop.dst;
    const bool seg_match =
        l.segment == net::kAnySegment || l.segment == hop.segment;
    const bool port_match = l.port == net::kAnyPort || l.port == hop.port;
    if (!src_match || !dst_match || !seg_match || !port_match ||
        now < l.from || now >= l.until) {
      continue;
    }
    // First matching open window decides; RNG advances only here, in
    // simulator event order, so replay is exact.
    if (l.loss > 0.0 && rng_.uniform01() < l.loss) {
      return net::FrameFate::kLose;
    }
    if (l.dup > 0.0 && rng_.uniform01() < l.dup) {
      return net::FrameFate::kDuplicate;
    }
    return net::FrameFate::kDeliver;
  }
  return net::FrameFate::kDeliver;
}

}  // namespace rtdrm::fault
