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

namespace ekm {
namespace {

thread_local bool t_in_pool_worker = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("EKM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Work-pulling pool: a job is a chunk counter; workers (and the caller)
// race on an atomic cursor until the chunks are exhausted. The caller
// returns only after every chunk body has returned, so job state on the
// caller's stack stays valid for the whole run.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  std::size_t threads() const {
    // Atomic: resize() mutates threads_ concurrently with readers.
    return thread_count_.load(std::memory_order_acquire);
  }

  void resize(std::size_t n) {
    std::lock_guard<std::mutex> job_lock(run_mu_);
    if (n == 0) n = default_thread_count();
    if (n == threads()) return;
    shutdown();
    spawn(n);
  }

  void run(std::size_t chunks,
           const std::function<void(std::size_t)>& chunk_body) {
    // One job at a time: a second user thread calling parallel_for
    // serializes here instead of clobbering the live job's cursor (the
    // library's entry points stay safe to call from multiple threads).
    std::lock_guard<std::mutex> job_lock(run_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &chunk_body;
      total_ = chunks;
      next_.store(0, std::memory_order_relaxed);
      completed_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      ++epoch_;
    }
    work_cv_.notify_all();
    // Chunk bodies run on this thread too; flag it so a nested
    // parallel_for degrades to serial instead of deadlocking on run_mu_.
    t_in_pool_worker = true;
    drain(chunk_body, chunks);  // never throws; exceptions land in error_
    t_in_pool_worker = false;
    // Wait until every chunk ran AND every worker left drain(): a worker
    // still inside drain() holds a reference to chunk_body, so returning
    // earlier (or starting the next job) would dangle it.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) == total_ &&
             active_ == 0;
    });
    body_ = nullptr;
    if (error_ != nullptr) {
      // Surface the first chunk failure on the submitting thread (a
      // throw on a worker would otherwise std::terminate; contract
      // macros in this library throw by design).
      const std::exception_ptr e = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

  ~ThreadPool() { shutdown(); }

 private:
  ThreadPool() { spawn(default_thread_count()); }

  void spawn(std::size_t n) {
    stop_ = false;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
    thread_count_.store(threads_.size() + 1, std::memory_order_release);
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++epoch_;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    thread_count_.store(1, std::memory_order_release);
  }

  void drain(const std::function<void(std::size_t)>& body,
             std::size_t total) {
    for (;;) {
      const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= total) break;
      try {
        body(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
      // A failed chunk still counts as completed so waiters make
      // progress; run() rethrows error_ afterwards.
      if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop() {
    t_in_pool_worker = true;
    std::uint64_t seen_epoch = 0;
    for (;;) {
      const std::function<void(std::size_t)>* body = nullptr;
      std::size_t total = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        body = body_;
        total = total_;
        if (body != nullptr) ++active_;
      }
      if (body != nullptr) {
        drain(*body, total);
        {
          std::lock_guard<std::mutex> lock(mu_);
          --active_;
        }
        done_cv_.notify_all();
      }
    }
  }

  std::mutex run_mu_;  // serializes whole jobs (and resizes)
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t total_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> thread_count_{1};
  std::exception_ptr error_;  // first chunk failure of the current job
  std::size_t active_ = 0;    // workers currently inside drain()
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t parallel_threads() { return ThreadPool::instance().threads(); }

void set_parallel_threads(std::size_t n) { ThreadPool::instance().resize(n); }

std::size_t parallel_chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

bool parallel_runs_inline() {
  return t_in_pool_worker || parallel_threads() == 1;
}

void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (grain < 1) grain = 1;
  const std::size_t chunks = parallel_chunk_count(n, grain);
  if (chunks == 0) return;
  auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    body(c, begin, end);
  };
  if (chunks == 1 || parallel_runs_inline()) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  ThreadPool::instance().run(chunks, run_chunk);
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_chunks(
      n, grain,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        body(begin, end);
      });
}

}  // namespace ekm
