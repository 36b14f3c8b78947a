// Scenario: the fully wired simulated testbed (Table 1 baseline).
//
// Owns the simulator and every substrate — cluster, network (shared bus or
// switched fabric), synchronized clocks, RNG streams — in construction
// order so teardown is safe. Examples, tests, the profiler, and the
// experiment runner all build on this instead of hand-wiring substrates.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "net/clock_sync.hpp"
#include "net/ethernet.hpp"
#include "net/fabric.hpp"
#include "node/cluster.hpp"
#include "sim/simulator.hpp"
#include "task/runtime.hpp"

namespace rtdrm::apps {

struct ScenarioConfig {
  std::size_t node_count = 6;                       // Table 1
  node::ProcessorConfig cpu{};                      // RR, 1 ms slice
  /// Per-node relative speeds (extension); empty = homogeneous (paper).
  std::vector<double> node_speeds{};
  net::EthernetConfig ethernet{};                   // 100 Mbps
  /// Which network substrate to build. kBus (the default, and the paper's
  /// Table 1 setup) is byte-identical to every run before the switched
  /// fabric existed; kSwitched builds a SwitchedFabric from `fabric`,
  /// whose per-link parameters are taken from `ethernet` so the two are
  /// comparable point for point.
  net::NetKind net_kind = net::NetKind::kBus;
  /// Fabric shape when net_kind == kSwitched (`fabric.link` is overwritten
  /// with `ethernet` at construction).
  net::SwitchedFabricConfig fabric{};
  net::ClockSyncConfig clock_sync{};
  node::BackgroundLoadConfig background{};
  /// Ambient CPU load on every node at scenario start (other system
  /// activity); profiling and ablations override per node.
  Utilization ambient_load = Utilization::fraction(0.05);
  std::uint64_t seed = 42;
  /// Start the clock synchronization service on construction.
  bool start_clock_sync = true;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const ScenarioConfig& config() const { return config_; }
  /// The one event calendar every substrate runs on.
  sim::Simulator& sim() { return sim_; }
  node::Cluster& cluster() { return cluster_; }
  /// The network substrate, whichever kind the config selected.
  net::NetworkModel& net() { return *net_; }
  /// The shared bus — only valid when net_kind == kBus (asserted). Kept
  /// for the many tests and tools that program against bus specifics.
  net::Ethernet& ethernet();
  /// The switched fabric — only valid when net_kind == kSwitched.
  net::SwitchedFabric& fabric();
  net::ClockFabric& clocks() { return clocks_; }
  RngStreams& streams() { return streams_; }
  net::NetworkProbe& netProbe() { return net_probe_; }

  /// Advance the whole testbed by `d` from the current clock.
  void runFor(SimDuration d) { sim_.runFor(d); }

  task::Runtime runtime() {
    return task::Runtime{sim_, cluster_, *net_, clocks_};
  }

 private:
  static net::SwitchedFabricConfig fabricConfig(const ScenarioConfig& config) {
    net::SwitchedFabricConfig fc = config.fabric;
    fc.link = config.ethernet;
    return fc;
  }
  static std::unique_ptr<net::NetworkModel> makeNet(
      sim::Simulator& simulator, const ScenarioConfig& config);

  ScenarioConfig config_;
  RngStreams streams_;
  sim::Simulator sim_;
  node::Cluster cluster_;
  std::unique_ptr<net::NetworkModel> net_;
  net::ClockFabric clocks_;
  net::NetworkProbe net_probe_;
};

}  // namespace rtdrm::apps
