#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace greennfv {

namespace {
thread_local int t_worker_index = -1;
}  // namespace

int ThreadPool::current_worker() { return t_worker_index; }

int ThreadPool::hardware_threads() {
  static const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return threads;
}

ThreadPool::ThreadPool(int threads) {
  const std::size_t n = static_cast<std::size_t>(std::max(threads, 1));
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t slot;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    slot = next_++ % workers_.size();
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(workers_[slot]->mutex);
    workers_[slot]->queue.push_back(std::move(task));
  }
  {
    // queued_ becomes visible only after the task is in its deque, so a
    // woken worker's scan always finds something to pop.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++queued_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t self) {
  std::function<void()> task;
  // Own queue first (front — FIFO over the dealt order)...
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.queue.empty()) {
      task = std::move(own.queue.front());
      own.queue.pop_front();
    }
  }
  // ...then steal from the back of a sibling's deque.
  if (!task) {
    for (std::size_t step = 1; step < workers_.size() && !task; ++step) {
      Worker& victim = *workers_[(self + step) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.queue.empty()) {
        task = std::move(victim.queue.back());
        victim.queue.pop_back();
      }
    }
  }
  if (!task) return false;

  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    --queued_;
  }
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    --pending_;
    if (pending_ == 0) done_cv_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker_index = static_cast<int>(self);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (stop_) return;
    }
    // Drain everything reachable; when the scan comes up dry the worker
    // falls back to the predicate above (queued_ may be momentarily stale
    // around a concurrent pop, which costs one extra scan, never a lost
    // task: queued_ only becomes positive after the push is visible).
    while (try_run_one(self)) {
    }
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::run_shared(std::size_t count,
                            const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  const std::size_t helpers =
      std::min(workers_.size(), count > 0 ? count - 1 : 0);
  for (std::size_t k = 0; k < helpers; ++k) submit(drain);
  drain();
  wait();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t count, int jobs,
                              const std::function<void(std::size_t)>& body) {
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool pool(std::min<int>(jobs, static_cast<int>(count)));
  for (std::size_t i = 0; i < count; ++i)
    pool.submit([&body, i] { body(i); });
  pool.wait();
}

}  // namespace greennfv
