#pragma once

#include <cstddef>
#include <functional>

/// \file thread_pool.hpp
/// The one parallel primitive: parallel_for runs an index range on a
/// process-lifetime pool, for the campaign runner's matrix cells and the
/// fleet replay's per-node tasks alike. Pool threads sleep until a range
/// is posted, then claim indices from one atomic counter, and so does the
/// caller — a long index (a trained-roster cell) keeps one thread busy
/// while the others drain the short ones around it. The pool imposes no
/// ordering: callers that need determinism index their results (slot per
/// index) and seed each index independently, which is what makes a
/// `jobs=N` sweep bit-identical to `jobs=1` — no index reads another's
/// state.

namespace greennfv {

class ThreadPool {
 public:
  ThreadPool() = delete;

  /// Runs body(0..count-1) on at most min(jobs, count) threads: pool
  /// threads take seats from 0 and the caller takes the last one. Returns
  /// only once every index has finished, so `body` may use the caller's
  /// stack; then rethrows the first exception a body raised. The pool
  /// keeps its threads for the process, so a range starts threads only
  /// when it is wider than every range before it.
  ///
  /// Runs inline on the calling thread instead, in index order and
  /// stopping at the first exception, when jobs <= 1 or count <= 1 (the
  /// serial reference a parallel run must be bit-identical to), when
  /// called from inside a range body (a range never fans out from its own
  /// indices: its seats already hold the cores), or when another thread's
  /// range holds the pool.
  static void parallel_for(std::size_t count, int jobs,
                           const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency(), at least 1, read once per
  /// process (the query is a syscall on Linux).
  [[nodiscard]] static int hardware_threads();

  /// The calling thread's seat in the range it is running, in [0, jobs),
  /// or -1 outside any range. An inline call opens no range and leaves it
  /// as it was. Results never depend on it: campaign timings record it.
  [[nodiscard]] static int current_worker();
};

}  // namespace greennfv
