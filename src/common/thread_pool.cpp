#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace greennfv {

namespace {

thread_local int t_seat = -1;

/// Runs one range at a time. A pool thread joins and leaves a range under
/// `mutex_`, which publishes the range to the thread and the thread's
/// writes back to the caller.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Runs body(0..count-1) on `seats` seats, or returns false at once if
  /// another range holds the pool.
  bool run(std::size_t count, int seats,
           const std::function<void(std::size_t)>& body) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (busy_) return false;
      while (threads_.size() < static_cast<std::size_t>(seats - 1))
        threads_.emplace_back([this] { serve(); });
      busy_ = true;
      body_ = &body;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      joined_ = 0;
      open_seats_ = seats - 1;
    }
    wake_.notify_all();
    t_seat = seats - 1;
    drain();
    t_seat = -1;
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      open_seats_ = joined_;  // threads not yet awake stay out
      left_.wait(lock, [this] { return active_ == 0; });
      busy_ = false;
      error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
    return true;
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_.wait(lock, [this] { return stop_ || joined_ < open_seats_; });
      if (stop_) return;
      t_seat = joined_++;
      ++active_;
      lock.unlock();
      drain();
      t_seat = -1;
      lock.lock();
      open_seats_ = joined_;  // the counter is spent
      if (--active_ == 0) left_.notify_one();
    }
  }

  void drain() {
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < count_; i = next_.fetch_add(1, std::memory_order_relaxed)) {
      try {
        (*body_)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  std::mutex mutex_;  ///< guards stop_ through error_
  std::condition_variable wake_;  ///< a range opened seats, or stop_
  std::condition_variable left_;  ///< the range's last pool thread left
  bool stop_ = false;
  bool busy_ = false;   ///< a range holds the pool
  int open_seats_ = 0;  ///< pool seats the range offers
  int joined_ = 0;      ///< pool seats taken
  int active_ = 0;      ///< pool threads still inside the range
  std::exception_ptr error_;
  /// The range: written under mutex_ before its seats open, read-only
  /// until the last seat leaves.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};  ///< the claim counter
  std::vector<std::thread> threads_;  ///< last: they use every member above
};

}  // namespace

int ThreadPool::current_worker() { return t_seat; }

int ThreadPool::hardware_threads() {
  static const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return threads;
}

void ThreadPool::parallel_for(std::size_t count, int jobs,
                              const std::function<void(std::size_t)>& body) {
  static Pool pool;
  if (jobs > 1 && count > 1 && t_seat < 0 &&
      pool.run(count,
               static_cast<int>(
                   std::min(count, static_cast<std::size_t>(jobs))),
               body))
    return;
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace greennfv
