// Generator property suite: the Pareto arrivals really are heavy-tailed
// with the configured index (Hill estimator over a large fixed-seed
// sample), the surge generator's cross-sensor correlation follows its join
// probability, and — the load-bearing contract — every generator is a pure
// random-access function of (seed, indices): values are identical whatever
// order or worker-thread count evaluates them, and a fixed seed replays
// the exact pinned values forever.
#include "workload/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "net/ethernet.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::workload {
namespace {

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  const auto n = static_cast<double>(a.size());
  double ma = 0.0;
  double mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0;
  double va = 0.0;
  double vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  return cov / std::sqrt(va * vb);
}

TEST(ParetoArrivals, HillEstimatorRecoversTheTailIndex) {
  // The Lomax excess has survival (1 + x/scale)^-alpha, so the upper order
  // statistics are asymptotically Pareto(alpha): the Hill estimator over
  // the top k of a large sample must land near the configured index.
  ParetoParams p;
  p.tail_index = 1.5;
  const ParetoArrivals gen(p, 7);
  const std::size_t n = 20000;
  std::vector<double> excess(n);
  for (std::size_t i = 0; i < n; ++i) {
    excess[i] = gen.at(i).count() - p.floor.count();
    ASSERT_GT(excess[i], 0.0);
  }
  std::sort(excess.begin(), excess.end(), std::greater<>());
  const std::size_t k = 500;
  double log_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    log_sum += std::log(excess[i] / excess[k]);
  }
  const double alpha_hat = static_cast<double>(k) / log_sum;
  EXPECT_NEAR(alpha_hat, p.tail_index, 0.25);
}

TEST(ParetoArrivals, FloorAndCapBoundEveryDraw) {
  ParetoParams p;
  p.cap = DataSize::tracks(4000.0);
  const ParetoArrivals gen(p, 99);
  bool cap_hit = false;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const double v = gen.at(i).count();
    EXPECT_GE(v, p.floor.count());
    EXPECT_LE(v, p.cap.count());
    cap_hit = cap_hit || v == p.cap.count();
  }
  // alpha = 1.5, scale = 1500: P(excess > 3500) ~ 9%, so a 5000-draw
  // sample certainly exercises the ceiling.
  EXPECT_TRUE(cap_hit);
}

TEST(CorrelatedSurge, JoinProbabilityControlsCrossSensorCorrelation) {
  const std::size_t periods = 2000;
  auto series = [&](double join, std::size_t sensor) {
    SurgeParams p;
    p.join_probability = join;
    const CorrelatedSurge gen(p, 2, 31);
    std::vector<double> out(periods);
    for (std::size_t c = 0; c < periods; ++c) {
      out[c] = gen.sensorAt(sensor, c).count();
    }
    return out;
  };
  const double high = pearson(series(0.95, 0), series(0.95, 1));
  const double low = pearson(series(0.15, 0), series(0.15, 1));
  EXPECT_GT(high, 0.75);
  EXPECT_LT(low, 0.5);
  EXPECT_GT(high, low + 0.3);
}

TEST(CorrelatedSurge, FullJoinMakesSensorsSpikeInLockstep) {
  SurgeParams p;
  p.join_probability = 1.0;
  const CorrelatedSurge gen(p, 3, 5);
  bool any_surge = false;
  for (std::uint64_t c = 0; c < 500; ++c) {
    const double s0 = gen.sensorAt(0, c).count();
    EXPECT_EQ(s0, gen.sensorAt(1, c).count()) << "period " << c;
    EXPECT_EQ(s0, gen.sensorAt(2, c).count()) << "period " << c;
    any_surge = any_surge || s0 > p.baseline.count();
  }
  EXPECT_TRUE(any_surge);
  // And the fused view is exactly the per-sensor sum.
  const auto fused = gen.fusedPattern();
  EXPECT_DOUBLE_EQ(fused->at(42).count(), 3.0 * gen.sensorAt(0, 42).count());
}

TEST(CorrelatedSurge, ZeroStartProbabilityIsFlatBaseline) {
  SurgeParams p;
  p.start_probability = 0.0;
  const CorrelatedSurge gen(p, 2, 11);
  for (std::uint64_t c = 0; c < 200; ++c) {
    EXPECT_DOUBLE_EQ(gen.sensorAt(0, c).count(), p.baseline.count());
  }
}

class GeneratorDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { parallel::setThreads(0); }
};

TEST_F(GeneratorDeterminism, TablesByteIdenticalAcrossThreadCounts) {
  // Every draw is a pure function of (seed, indices), so filling a table
  // in parallel must be bit-identical at any worker count — the property
  // that lets parallel sweeps evaluate generators from any thread without
  // coordination.
  const std::size_t n = 4000;
  const ParetoArrivals pareto({}, 1234);
  const CorrelatedSurge surge({}, 4, 1234);
  const auto fused = surge.fusedPattern();

  auto fill = [&](unsigned threads) {
    parallel::setThreads(threads);
    std::vector<double> out(2 * n);
    parallelFor(n, [&](std::size_t i) {
      out[i] = pareto.at(i).count();
      out[n + i] = fused->at(i).count();
    });
    return out;
  };
  const std::vector<double> base = fill(1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(base, fill(threads)) << threads << " threads";
  }
}

TEST_F(GeneratorDeterminism, EvaluationOrderNeverMatters) {
  const ParetoArrivals gen({}, 77);
  std::vector<double> forward(1000);
  std::vector<double> backward(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    forward[i] = gen.at(i).count();
  }
  for (std::size_t i = 1000; i-- > 0;) {
    backward[i] = gen.at(i).count();
  }
  EXPECT_EQ(forward, backward);
}

TEST_F(GeneratorDeterminism, SeedReplayPinsExactValues) {
  // Frozen draws for seed 42: any change to the keyed-RNG derivation, the
  // inverse-transform path, or the surge window arithmetic shows up here
  // as a byte-level diff, the same way a golden trace would.
  const ParetoArrivals pareto({}, 42);
  EXPECT_DOUBLE_EQ(pareto.at(0).count(), 1546.3067141080153);
  EXPECT_DOUBLE_EQ(pareto.at(1).count(), 1695.0726540100075);
  EXPECT_DOUBLE_EQ(pareto.at(7).count(), 1749.3327526502496);
  EXPECT_DOUBLE_EQ(pareto.at(123).count(), 2647.6631553149823);

  const CorrelatedSurge surge({}, 4, 42);
  const auto fused = surge.fusedPattern();
  EXPECT_DOUBLE_EQ(fused->at(0).count(), 4000.0);
  EXPECT_DOUBLE_EQ(fused->at(5).count(), 4000.0);
  EXPECT_DOUBLE_EQ(fused->at(17).count(), 4671.8464000000004);
  EXPECT_DOUBLE_EQ(surge.sensorAt(0, 5).count(), 1000.0);
}

TEST_F(GeneratorDeterminism, ContenderTrafficReplaysByteIdentically) {
  // Two fresh simulations, same config: identical post counts and
  // identical payload totals on the wire (endpoints and jitter are pure
  // draws, never consuming shared RNG state).
  auto run = [] {
    sim::Simulator sim;
    net::Ethernet net(sim, 5);
    ContenderConfig cc;
    cc.flows = 3;
    cc.period = SimDuration::millis(5.0);
    cc.seed = 9;
    ContenderTraffic traffic(sim, net, 5, cc);
    traffic.start();
    sim.runUntil(SimTime::millis(120.0));
    return std::pair<std::uint64_t, double>{traffic.messagesPosted(),
                                            net.payloadBytesCarried()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.first, 0u);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace rtdrm::workload
