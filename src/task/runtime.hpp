// Bundle of substrate references a pipeline instance executes against.
#pragma once

#include "net/clock_sync.hpp"
#include "net/network_model.hpp"
#include "node/cluster.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::task {

struct Runtime {
  sim::Simulator& sim;
  node::Cluster& cluster;
  net::NetworkModel& net;
  net::ClockFabric& clocks;
};

}  // namespace rtdrm::task
