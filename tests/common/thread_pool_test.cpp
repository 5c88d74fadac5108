#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

/// ThreadPool contract: every submitted task runs exactly once, stealing
/// drains a blocked worker's queue, exceptions surface from wait(),
/// parallel_for with jobs=1 stays on the calling thread (the serial
/// reference parallel campaigns are compared against), and run_shared
/// covers its range on a reused pool before it returns or rethrows.

namespace greennfv {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  ThreadPool::parallel_for(kCount, 8, [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, JobsOneRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ThreadPool::parallel_for(16, 1, [&order, caller](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no synchronization needed: same thread
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, StealingDrainsABlockedWorkersQueue) {
  // Two workers. The first task parks worker A until released; the
  // round-robin deal then piles half the fast tasks onto A's deque, so
  // the only way they can finish while A is parked is worker B stealing
  // them.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.submit([released] { released.wait(); });

  constexpr int kFast = 64;
  std::atomic<int> fast_done{0};
  for (int i = 0; i < kFast; ++i)
    pool.submit([&fast_done] { fast_done.fetch_add(1); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fast_done.load() < kFast &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fast_done.load(), kFast)
      << "stealing failed: blocked worker's tasks never ran";

  release.set_value();
  pool.wait();
}

TEST(ThreadPool, WaitRethrowsTheFirstTaskException) {
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i)
    pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool stays usable after a failure drain.
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      ThreadPool::parallel_for(32, 4,
                               [](std::size_t i) {
                                 if (i == 17)
                                   throw std::invalid_argument("bad cell");
                               }),
      std::invalid_argument);
}

TEST(ThreadPool, RunSharedRunsEveryIndexOnceAcrossReusedCalls) {
  // One pool, several calls: each covers its whole range exactly once, and
  // the caller's stack (the hit counters) outlives every worker's share.
  ThreadPool pool(3);
  for (int call = 0; call < 4; ++call) {
    constexpr std::size_t kCount = 300;
    std::vector<std::atomic<int>> hits(kCount);
    pool.run_shared(kCount, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
  pool.run_shared(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, RunSharedFinishesEveryIndexBeforeRethrowing) {
  ThreadPool pool(2);
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  EXPECT_THROW(pool.run_shared(kCount,
                               [&hits](std::size_t i) {
                                 hits[i].fetch_add(1);
                                 if (i % 16 == 3)
                                   throw std::runtime_error("index boom");
                               }),
               std::runtime_error);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, HardwareThreadsIsPositiveAndStable) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
  EXPECT_EQ(ThreadPool::hardware_threads(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, WaitWithNothingSubmittedReturnsImmediately) {
  ThreadPool pool(3);
  pool.wait();
  ThreadPool::parallel_for(0, 4, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace greennfv
