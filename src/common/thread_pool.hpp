#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.hpp
/// Work-stealing thread pool for embarrassingly-parallel work: experiment
/// matrices and the fleet replay's per-node tasks. Each worker owns a
/// deque; submit() deals tasks round-robin, a worker pops from the front of
/// its own deque and steals from the back of a sibling's when dry — long
/// runs (a trained-roster cell) keep one worker busy while the others
/// drain the short runs around it. The pool imposes no ordering: callers
/// that need determinism index their results (slot per task) and seed each
/// task independently, which is exactly what the campaign runner does — a
/// `--jobs N` sweep is bit-identical to `--jobs 1` because no task reads
/// another's state.

namespace greennfv {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Joins the workers. Tasks still queued are discarded (call wait()
  /// first for a clean drain); tasks already running complete.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe from any thread, including from inside a task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task raised (remaining exceptions are dropped).
  void wait();

  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Runs body(0..count-1) on this pool's workers and on the calling
  /// thread, which claims indices like a worker. Returns only once every
  /// index has finished, so `body` may use the caller's stack; then
  /// rethrows the first exception a body raised. Reuses the pool across
  /// calls — no threads start. Must not be called from this pool's own
  /// workers (the wait would include the calling task).
  void run_shared(std::size_t count,
                  const std::function<void(std::size_t)>& body);

  /// Runs body(0..count-1) across `jobs` workers and blocks until done.
  /// jobs <= 1 runs inline on the calling thread (no pool, no threads) —
  /// the serial reference a parallel run must be bit-identical to.
  static void parallel_for(std::size_t count, int jobs,
                           const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency(), at least 1, read once per
  /// process (the query is a syscall on Linux).
  [[nodiscard]] static int hardware_threads();

  /// Index of the pool worker running the calling thread, or -1 off-pool
  /// (the main thread, including parallel_for's jobs<=1 inline path).
  /// Results never depend on it: campaign timings record it, and the fleet
  /// replay runs inline on any pool worker so pool tasks never fan out.
  [[nodiscard]] static int current_worker();

 private:
  struct Worker {
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
  };

  void worker_loop(std::size_t self);
  bool try_run_one(std::size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::size_t queued_ = 0;   ///< tasks sitting in some deque
  std::size_t pending_ = 0;  ///< tasks submitted and not yet finished
  std::size_t next_ = 0;     ///< round-robin dealing cursor
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace greennfv
