#include "apps/scenario.hpp"

#include "common/assert.hpp"

namespace rtdrm::apps {

std::unique_ptr<net::NetworkModel> Scenario::makeNet(
    sim::Simulator& simulator, const ScenarioConfig& config) {
  if (config.net_kind == net::NetKind::kSwitched) {
    return std::make_unique<net::SwitchedFabric>(
        simulator, config.node_count, fabricConfig(config));
  }
  return std::make_unique<net::Ethernet>(simulator, config.node_count,
                                         config.ethernet);
}

net::Ethernet& Scenario::ethernet() {
  RTDRM_ASSERT_MSG(config_.net_kind == net::NetKind::kBus,
                   "ethernet() on a switched-fabric scenario; use net()");
  return static_cast<net::Ethernet&>(*net_);
}

net::SwitchedFabric& Scenario::fabric() {
  RTDRM_ASSERT_MSG(config_.net_kind == net::NetKind::kSwitched,
                   "fabric() on a shared-bus scenario; use net()");
  return static_cast<net::SwitchedFabric&>(*net_);
}

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config),
      streams_(config.seed),
      cluster_(sim_, config.node_count, config.cpu, config.node_speeds),
      net_(makeNet(sim_, config)),
      clocks_(sim_, config.node_count, streams_.get("clock-fabric"),
              config.clock_sync),
      net_probe_(sim_, *net_) {
  // Belt and braces: every Processor constructor already validated its own
  // copy; this re-check keeps the contract even if the cluster seam ever
  // stops forwarding the config verbatim.
  config.cpu.validate();
  cluster_.attachBackgroundLoad(streams_, config.background);
  if (config.ambient_load.value() > 0.0) {
    for (ProcessorId id : cluster_.ids()) {
      cluster_.backgroundLoad(id).setTarget(config.ambient_load);
    }
  }
  if (config.start_clock_sync) {
    clocks_.startSync();
  }
}

}  // namespace rtdrm::apps
