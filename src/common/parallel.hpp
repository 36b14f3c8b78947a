// Minimal data-parallel helper for embarrassingly parallel sweeps.
//
// Experiment sweeps (Figs. 9-13) run dozens of fully independent simulation
// episodes; parallelFor fans them out across hardware threads. Indices are
// claimed in chunks of `grain` from an atomic counter, so uneven episode
// costs balance automatically. Exceptions in workers are captured and
// rethrown on the caller thread (first one wins).
//
// Workers come from a lazily-constructed process-wide pool that persists
// across calls, so back-to-back sweeps (every Figs. 9-13 binary) stop
// paying thread create/join per call. The caller thread participates in
// every call. Pool size defaults to std::thread::hardware_concurrency()
// and can be overridden with the RTDRM_THREADS environment variable (read
// once, at first use); the pool grows on demand when a call asks for more
// workers via the `threads` argument. Nested parallelFor calls from inside
// a worker run serially on that worker — fan-out happens at one level only.
#pragma once

#include <cstddef>
#include <functional>

namespace rtdrm {

namespace parallel {

/// Process-wide execution configuration, resolved once from the
/// environment (RTDRM_THREADS) at first use and overridable by
/// command-line front ends (--threads).
struct Config {
  /// Worker budget for parallelFor (>= 1; the calling thread counts as
  /// one worker).
  unsigned threads = 1;
  /// std::thread::hardware_concurrency() at resolution time (>= 1);
  /// recorded into bench config blocks so results are interpretable.
  unsigned cpu_count = 1;
};

/// The resolved process-wide configuration. First call reads the
/// environment; later calls return the (possibly overridden) snapshot.
const Config& config();

/// Overrides the worker budget (0 = re-resolve from env/hardware). Takes
/// effect for subsequent parallelFor calls; the persistent pool grows on
/// demand and never shrinks.
void setThreads(unsigned n);

}  // namespace parallel

/// Invokes fn(i) for i in [0, n) using up to `threads` workers (0 = the
/// parallel::config() budget, which honors RTDRM_THREADS). fn must be safe
/// to call concurrently for distinct i. `grain` is the number of
/// consecutive indices a worker claims at a time; 1 (the default) gives
/// the best load balance for coarse work items like simulation episodes,
/// larger grains amortize the claim for very cheap bodies.
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 unsigned threads = 0, std::size_t grain = 1);

/// Number of workers a parallelFor(n, fn) call would use at most (the
/// resolved pool size, including the calling thread). Exposed for tests
/// and for sizing per-worker scratch storage.
unsigned parallelWorkerCount();

}  // namespace rtdrm
