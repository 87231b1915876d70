// The serving width. Every request runs on the thread that admitted it,
// from search through the write of its last slot, so the library keeps no
// worker pool.

#ifndef EXTRACT_COMMON_THREAD_POOL_H_
#define EXTRACT_COMMON_THREAD_POOL_H_

#include <cstddef>

namespace extract {

struct ThreadPool {
  /// Unread by the library: every request runs at width 1. Kept only
  /// because the repository benchmark (perfbench/) reports it; it goes with
  /// the next change to that benchmark.
  static constexpr size_t ConfiguredThreads() { return 1; }
};

}  // namespace extract

#endif  // EXTRACT_COMMON_THREAD_POOL_H_
