#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/assert.hpp"

/// \file ring.hpp
/// Lock-free bounded queues modelled on DPDK's rte_ring:
///
///   * SpscRing  — single-producer/single-consumer, the per-NF RX/TX queues
///                 (OpenNetVM gives every NF two circular queues).
///   * MpmcQueue — Vyukov bounded MPMC, used for the shared mempool freelist
///                 and the Ape-X experience hand-off.
///
/// Both are power-of-two sized, cache-line-pad their indices to avoid false
/// sharing, and support bulk transfer (DPDK's burst enqueue/dequeue) since
/// batching is one of the paper's five knobs.

namespace greennfv::nfvsim {

/// Destructive-interference distance. Pinned to 64 (x86-64) rather than
/// std::hardware_destructive_interference_size so the layout is ABI-stable
/// across compiler versions and -mtune settings.
inline constexpr std::size_t kCacheLine = 64;

[[nodiscard]] constexpr std::size_t next_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two; one slot is *not* wasted
  /// (indices are free-running counters).
  explicit SpscRing(std::size_t capacity)
      : slots_(next_pow2(capacity)), mask_(slots_.size() - 1) {
    GNFV_REQUIRE(capacity >= 2, "SpscRing: capacity too small");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full.
  bool try_push(T value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_cache_;
    if (tail - head >= slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_cache_;
    if (head >= tail) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head >= tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Burst enqueue: pushes as many items as fit; returns the count pushed.
  std::size_t try_push_bulk(std::span<const T> items) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t head = head_cache_;
    if (tail + items.size() - head > slots_.size()) {
      head_cache_ = head = head_.load(std::memory_order_acquire);
    }
    const std::size_t free_slots = slots_.size() - (tail - head);
    const std::size_t n = std::min(items.size(), free_slots);
    for (std::size_t i = 0; i < n; ++i) slots_[(tail + i) & mask_] = items[i];
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Burst dequeue into `out`; returns the count popped.
  std::size_t try_pop_bulk(std::span<T> out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t tail = tail_cache_;
    if (head + out.size() > tail) {
      tail_cache_ = tail = tail_.load(std::memory_order_acquire);
    }
    const std::size_t available = tail - head;
    const std::size_t n = std::min(out.size(), available);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::move(slots_[(head + i) & mask_]);
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Approximate occupancy (exact only when quiescent).
  [[nodiscard]] std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  alignas(kCacheLine) std::size_t tail_cache_ = 0;  // consumer-local
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  alignas(kCacheLine) std::size_t head_cache_ = 0;  // producer-local
};

/// Dmitry Vyukov's bounded MPMC queue.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity)
      : cells_(next_pow2(capacity)), mask_(cells_.size() - 1) {
    GNFV_REQUIRE(capacity >= 2, "MpmcQueue: capacity too small");
    for (std::size_t i = 0; i < cells_.size(); ++i)
      cells_[i].sequence.store(i, std::memory_order_relaxed);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  bool try_push(T value) {
    Cell* cell = nullptr;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool try_pop(T& out) {
    Cell* cell = nullptr;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] std::size_t capacity() const { return cells_.size(); }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_;
  alignas(kCacheLine) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(kCacheLine) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace greennfv::nfvsim
