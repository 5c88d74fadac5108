#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

/// ThreadPool::parallel_for contract: every index runs exactly once, on
/// reused pool threads; the first exception surfaces only after the whole
/// range finished, and the pool stays usable; jobs=1, a call from inside a
/// range body and a call while another thread's range holds the pool run
/// inline on the calling thread; a range uses at most `jobs` threads and
/// seats; a blocked index does not hold up the rest; and a pool thread
/// that wakes after its range ended stays out of it.

namespace greennfv {
namespace {

/// Blocks until `done` holds or 30 s pass, so a broken pool fails its
/// test instead of hanging it.
template <typename Done>
bool wait_for(std::mutex& mutex, std::condition_variable& cv, Done done) {
  std::unique_lock<std::mutex> lock(mutex);
  return cv.wait_for(lock, std::chrono::seconds(30), done);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  ThreadPool::parallel_for(kCount, 8, [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnceAcrossReusedCalls) {
  // Several calls on the one pool, at several widths: each covers its
  // whole range exactly once, and the caller's stack (the hit counters)
  // outlives every thread's share.
  for (const int jobs : {3, 2, 4, 3}) {
    constexpr std::size_t kCount = 300;
    std::vector<std::atomic<int>> hits(kCount);
    ThreadPool::parallel_for(kCount, jobs,
                             [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, JobsOneRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ThreadPool::parallel_for(16, 1, [&order, caller](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(ThreadPool::current_worker(), -1);
    order.push_back(i);  // no synchronization needed: same thread
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
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

TEST(ThreadPool, ParallelForFinishesEveryIndexBeforeRethrowing) {
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  EXPECT_THROW(ThreadPool::parallel_for(kCount, 2,
                                        [&hits](std::size_t i) {
                                          hits[i].fetch_add(1);
                                          if (i % 16 == 3)
                                            throw std::runtime_error("boom");
                                        }),
               std::runtime_error);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, PoolIsUsableAfterAFailure) {
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(ThreadPool::parallel_for(
                     8, 4, [](std::size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    std::atomic<int> ran{0};
    ThreadPool::parallel_for(8, 4, [&ran](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPool, EmptyRangeReturnsImmediately) {
  ThreadPool::parallel_for(0, 4, [](std::size_t) { FAIL(); });
  ThreadPool::parallel_for(0, 1, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, NestedCallRunsInlineOnItsThreadAndSeat) {
  constexpr std::size_t kOuter = 12;
  std::vector<int> inner_ok(kOuter, 0);
  ThreadPool::parallel_for(kOuter, 4, [&inner_ok](std::size_t i) {
    const std::thread::id thread = std::this_thread::get_id();
    const int seat = ThreadPool::current_worker();
    EXPECT_GE(seat, 0);
    EXPECT_LT(seat, 4);
    std::vector<std::size_t> order;
    ThreadPool::parallel_for(6, 4, [&](std::size_t j) {
      EXPECT_EQ(std::this_thread::get_id(), thread);
      EXPECT_EQ(ThreadPool::current_worker(), seat);
      order.push_back(j);  // same thread: no synchronization needed
    });
    inner_ok[i] = order == std::vector<std::size_t>{0, 1, 2, 3, 4, 5};
  });
  for (std::size_t i = 0; i < kOuter; ++i) EXPECT_TRUE(inner_ok[i]) << i;
  EXPECT_EQ(ThreadPool::current_worker(), -1);
}

TEST(ThreadPool, ConcurrentExternalCallersBothFinish) {
  // Caller A's range parks index 0 until caller B's call has returned.
  // B meets a pool A's range holds, so it runs inline on its own thread.
  std::mutex mutex;
  std::condition_variable cv;
  bool a_started = false;
  bool b_done = false;
  std::atomic<int> a_hits{0};
  std::vector<std::size_t> b_order;
  std::thread a([&] {
    ThreadPool::parallel_for(32, 3, [&](std::size_t i) {
      if (i == 0) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          a_started = true;
        }
        cv.notify_all();
        EXPECT_TRUE(wait_for(mutex, cv, [&] { return b_done; }));
      }
      a_hits.fetch_add(1);
    });
  });
  std::thread b([&] {
    EXPECT_TRUE(wait_for(mutex, cv, [&] { return a_started; }));
    const std::thread::id self = std::this_thread::get_id();
    ThreadPool::parallel_for(16, 3, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      b_order.push_back(i);  // inline: no synchronization needed
    });
    {
      const std::lock_guard<std::mutex> lock(mutex);
      b_done = true;
    }
    cv.notify_all();
  });
  a.join();
  b.join();
  EXPECT_EQ(a_hits.load(), 32);
  ASSERT_EQ(b_order.size(), 16u);
  for (std::size_t i = 0; i < b_order.size(); ++i) EXPECT_EQ(b_order[i], i);
}

TEST(ThreadPool, RangeUsesAtMostJobsThreadsAndSeats) {
  // A wide range first grows the pool past the narrow one's width.
  ThreadPool::parallel_for(64, 8, [](std::size_t) {});
  for (const int jobs : {2, 3}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> threads;
    std::set<int> seats;
    std::set<int> caller_seats;
    ThreadPool::parallel_for(200, jobs, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      const int seat = ThreadPool::current_worker();
      const std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
      seats.insert(seat);
      if (std::this_thread::get_id() == caller) caller_seats.insert(seat);
    });
    EXPECT_LE(threads.size(), static_cast<std::size_t>(jobs));
    EXPECT_EQ(seats.size(), threads.size());
    EXPECT_GE(*seats.begin(), 0);
    EXPECT_LT(*seats.rbegin(), jobs);
    // The caller, if it claimed an index at all, sat in the last seat.
    for (const int seat : caller_seats) EXPECT_EQ(seat, jobs - 1);
  }
}

TEST(ThreadPool, ABlockedIndexDoesNotHoldUpTheRest) {
  // Index 0 parks its thread until every other index has finished, which
  // only the range's other seat can bring about.
  constexpr std::size_t kCount = 64;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t others_done = 0;
  bool released = false;
  ThreadPool::parallel_for(kCount, 2, [&](std::size_t i) {
    if (i == 0) {
      released = wait_for(mutex, cv, [&] { return others_done == kCount - 1; });
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ++others_done;
    }
    cv.notify_all();
  });
  EXPECT_TRUE(released) << "the other indices never ran past index 0";
  EXPECT_EQ(others_done, kCount - 1);
}

TEST(ThreadPool, BackToBackTinyRangesRunEveryIndexOnce) {
  // The caller often drains a tiny range before any pool thread wakes. A
  // thread that wakes late must find that range's seats closed, not join
  // it after it returned or the next range while it is being posted.
  for (int call = 0; call < 20000; ++call) {
    const std::size_t count = 2 + static_cast<std::size_t>(call % 3);
    std::vector<int> hits(count, 0);
    ThreadPool::parallel_for(count, 4, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(hits[i], 1) << call;
  }
}

TEST(ThreadPool, HardwareThreadsIsPositiveAndStable) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
  EXPECT_EQ(ThreadPool::hardware_threads(), ThreadPool::hardware_threads());
}

}  // namespace
}  // namespace greennfv
