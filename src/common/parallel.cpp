#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace rtdrm {
namespace {

/// The process-wide execution configuration behind parallel::config().
/// Resolution order for the worker budget: explicit setThreads() override,
/// else RTDRM_THREADS, else hardware_concurrency().
parallel::Config& mutableConfig() {
  static parallel::Config cfg = [] {
    parallel::Config c;
    c.cpu_count = std::max(1u, std::thread::hardware_concurrency());
    c.threads = c.cpu_count;
    if (const char* env = std::getenv("RTDRM_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) {
        c.threads = static_cast<unsigned>(std::min<long>(v, 256));
      }
    }
    return c;
  }();
  return cfg;
}

// Set while a thread is executing loop bodies for some parallelFor call
// (pool workers always; the caller while it participates). A nested
// parallelFor on such a thread must not touch the pool: it would deadlock
// on the one-job-at-a-time submission lock. It runs serially instead.
thread_local bool tl_inside_parallel_region = false;

/// Process-wide persistent worker pool. One job runs at a time (submissions
/// serialize); the submitting thread works alongside the pool threads.
///
/// Jobs are published as epochs: run() stores the job under the mutex,
/// bumps the epoch and broadcasts. Every pool thread wakes exactly once per
/// epoch and acknowledges it — the first `active_limit_` to wake execute
/// chunks, the surplus ack immediately — so when the ack count drains to
/// zero no thread can still be touching the job state.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  /// Total workers (pool threads + caller) available by default. Reads the
  /// live parallel::config() snapshot so setThreads()/--threads overrides
  /// take effect for subsequent calls.
  unsigned defaultWorkers() const {
    return std::min(std::max(1u, mutableConfig().threads), kMaxWorkers);
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           unsigned max_workers, std::size_t grain) {
    const std::scoped_lock submit(submit_mutex_);
    {
      const std::scoped_lock lk(m_);
      // Grow lazily; threads spawned now inherit the current epoch, so the
      // coming bump is the first one they serve.
      const unsigned wanted =
          std::min<unsigned>(max_workers - 1, kMaxWorkers - 1);
      while (threads_.size() < wanted) {
        threads_.emplace_back([this, e = epoch_] { workerMain(e); });
      }
      fn_ = &fn;
      n_ = n;
      grain_ = grain;
      next_.store(0, std::memory_order_relaxed);
      failed_.store(false, std::memory_order_relaxed);
      error_ = nullptr;
      active_limit_ = max_workers - 1;  // caller is the remaining worker
      woken_ = 0;
      unacked_ = static_cast<unsigned>(threads_.size());
      ++epoch_;
    }
    cv_.notify_all();

    tl_inside_parallel_region = true;
    workChunks(n, fn, grain);
    tl_inside_parallel_region = false;

    std::unique_lock lk(m_);
    done_cv_.wait(lk, [this] { return unacked_ == 0; });
    fn_ = nullptr;
    if (error_) {
      std::exception_ptr err = error_;
      error_ = nullptr;
      lk.unlock();
      std::rethrow_exception(err);
    }
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      const std::scoped_lock lk(m_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      t.join();
    }
  }

  void workerMain(std::uint64_t seen_epoch) {
    tl_inside_parallel_region = true;
    std::unique_lock lk(m_);
    for (;;) {
      cv_.wait(lk, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) {
        return;
      }
      seen_epoch = epoch_;
      if (woken_++ < active_limit_) {
        const std::size_t n = n_;
        const std::function<void(std::size_t)>* fn = fn_;
        const std::size_t grain = grain_;
        lk.unlock();
        workChunks(n, *fn, grain);
        lk.lock();
      }
      if (--unacked_ == 0) {
        done_cv_.notify_all();
      }
    }
  }

  void workChunks(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
    while (!failed_.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          next_.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) {
        return;
      }
      const std::size_t end = std::min(begin + grain, n);
      try {
        for (std::size_t i = begin; i < end; ++i) {
          fn(i);
        }
      } catch (...) {
        const std::scoped_lock lk(m_);
        if (!error_) {
          error_ = std::current_exception();
        }
        failed_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  static constexpr unsigned kMaxWorkers = 256;

  std::mutex submit_mutex_;  // one job at a time
  std::mutex m_;
  std::condition_variable cv_;       // wakes workers on a new epoch
  std::condition_variable done_cv_;  // wakes the caller when all acked
  std::vector<std::thread> threads_;
  bool shutdown_ = false;

  // Current job (guarded by m_ except the atomics).
  std::uint64_t epoch_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t grain_ = 1;
  unsigned active_limit_ = 0;  // pool threads allowed to execute chunks
  unsigned woken_ = 0;         // pool threads that saw this epoch so far
  unsigned unacked_ = 0;       // pool threads yet to acknowledge this epoch
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

void serialFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

}  // namespace

namespace parallel {

const Config& config() { return mutableConfig(); }

void setThreads(unsigned n) {
  if (n == 0) {
    // Re-resolve the environment/hardware default.
    parallel::Config& cfg = mutableConfig();
    unsigned resolved = cfg.cpu_count;
    if (const char* env = std::getenv("RTDRM_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) {
        resolved = static_cast<unsigned>(std::min<long>(v, 256));
      }
    }
    cfg.threads = std::max(1u, resolved);
    return;
  }
  mutableConfig().threads = n;
}

}  // namespace parallel

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 unsigned threads, std::size_t grain) {
  if (n == 0) {
    return;
  }
  if (grain == 0) {
    grain = 1;
  }
  WorkerPool& pool = WorkerPool::instance();
  const unsigned requested = threads != 0 ? threads : pool.defaultWorkers();
  const std::size_t chunks = (n + grain - 1) / grain;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(requested, chunks));
  if (workers <= 1 || tl_inside_parallel_region) {
    serialFor(n, fn);
    return;
  }
  pool.run(n, fn, workers, grain);
}

unsigned parallelWorkerCount() {
  return WorkerPool::instance().defaultWorkers();
}

}  // namespace rtdrm
