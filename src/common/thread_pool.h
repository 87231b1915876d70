// A small fixed-size thread pool plus a ParallelFor helper, the concurrency
// substrate of batch snippet generation (snippet/snippet_service.h) and any
// future sharded/batched serving path.
//
// Design constraints, in keeping with the rest of the library:
//   * exception-free — tasks are plain std::function<void()>; fallible work
//     communicates through Status values captured by the closure;
//   * deterministic call sites — ParallelFor(n, fn) invokes fn(i) exactly
//     once for every i in [0, n); callers write results into pre-sized
//     slots, so output ordering never depends on scheduling.

#ifndef EXTRACT_COMMON_THREAD_POOL_H_
#define EXTRACT_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace extract {

/// \brief Fixed-size worker pool. Threads start in the constructor and join
/// in the destructor; Submit never blocks (the queue is unbounded).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1 (it reports 0 on
  /// some platforms).
  static size_t HardwareThreads();

  /// \brief Worker count SharedThreadPool() is (or would be) built with,
  /// and the width a ParallelFor with num_threads == 0 fans out to.
  ///
  /// Defaults to HardwareThreads(); the EXTRACT_POOL_THREADS environment
  /// variable overrides it (clamped to [1, 512]) so bench runs on shared /
  /// oversubscribed CI runners can pin a stable width instead of inheriting
  /// whatever hardware_concurrency reports. Read once, at first use —
  /// changing the variable after the shared pool exists has no effect.
  static size_t ConfiguredThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< queue non-empty or stopping
  std::condition_variable idle_cv_;  ///< queue empty and nothing in flight
  size_t in_flight_ = 0;
  bool stop_ = false;
};

/// \brief A cancellable group of tasks submitted to one pool, with
/// completion notification — the substrate of streaming serving sessions
/// (snippet/snippet_stream.h), where a request's workers must be awaitable
/// and cancellable as a unit without draining the whole pool.
///
/// Cancellation is cooperative: tasks that have not started when Cancel()
/// is called are skipped entirely (they still count as finished, so Wait()
/// and the drain callback see them); tasks already running finish normally
/// and may poll cancelled() to cut their own work short. The destructor
/// cancels and waits, so a group never outlives the state its tasks
/// capture by reference.
class TaskGroup {
 public:
  /// `pool` must outlive every task this group submits (the process-wide
  /// SharedThreadPool() trivially qualifies).
  explicit TaskGroup(ThreadPool* pool);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues one task on the pool. Runs unless the group is cancelled
  /// before the task starts.
  void Submit(std::function<void()> task);

  /// Requests cooperative cancellation: queued-not-started tasks are
  /// skipped; running tasks may poll cancelled(). Idempotent.
  void Cancel();

  /// True once Cancel() has been called (from any thread).
  bool cancelled() const;

  /// Blocks until every task submitted so far has finished or been skipped.
  void Wait();

  /// Tasks submitted but not yet finished/skipped.
  size_t outstanding() const;

 private:
  struct State {
    mutable std::mutex mu;
    std::condition_variable done_cv;
    size_t outstanding = 0;
    std::atomic<bool> cancelled{false};
  };

  ThreadPool* pool_;
  /// Heap-shared with every submitted wrapper, so skipped tasks still
  /// queued at destruction time drain against valid state.
  std::shared_ptr<State> state_;
};

/// \brief The process-wide serving pool: ConfiguredThreads() workers,
/// created lazily on first use and never torn down (serving paths outlive
/// any scoped owner). ParallelFor fans out on this pool, so per-query
/// parallel work (partition-parallel search, batch snippet generation,
/// snippet-stream workers) pays a task submit, not a thread spawn.
ThreadPool& SharedThreadPool();

/// \brief Parses an EXTRACT_POOL_THREADS-style value: digits only, clamped
/// to [1, 512]; 0 when `value` is null/empty/non-numeric (meaning "use the
/// hardware default"). Exposed so the parsing contract is unit-testable
/// without re-creating the process-wide pool.
size_t ParsePoolThreadsOverride(const char* value);

/// \brief Invokes fn(i) for every i in [0, n), using up to `num_threads`
/// workers (0 = ConfiguredThreads(): one per hardware core unless
/// EXTRACT_POOL_THREADS overrides it). With one effective worker — or
/// n <= 1 — runs inline on the calling thread, with no pool involvement.
///
/// Parallel runs execute on SharedThreadPool(): the calling thread works
/// through indices alongside up to num_threads - 1 pool workers and returns
/// only when every index is done. A ParallelFor issued from any pool-run
/// work — a nested call inside fn, or a task submitted to a pool directly —
/// runs inline on its caller instead: work still completes exactly once,
/// and a pool can never deadlock on workers waiting for queued helpers.
///
/// Indices are handed out dynamically (an atomic cursor), so uneven
/// per-index cost balances across workers. fn must be safe to call
/// concurrently from multiple threads for distinct i.
///
/// The library is exception-free by design, but a throwing fn is contained:
/// every index still runs, the caller returns only after all of them
/// finished (so helpers never outlive the caller's stack frame), and the
/// first exception is rethrown on the calling thread.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn);

/// \brief Invokes fn(begin, end) over contiguous chunks covering [0, n) in
/// parallel — for loops whose per-element work (an ancestor walk, a couple
/// of binary searches) is far too small for one ParallelFor index each.
/// A few chunks per worker (so uneven chunk cost still balances), same
/// num_threads semantics as ParallelFor. Chunk boundaries must never
/// affect output: callers write each element to its own pre-sized slot.
void ParallelForChunked(size_t n, size_t num_threads,
                        const std::function<void(size_t, size_t)>& fn);

/// \brief True when the calling thread is a pool worker or is inside a
/// ParallelFor region — the contexts where a further parallel fan-out would
/// run inline anyway. Streaming sessions use this to fall back to lazy
/// inline production instead of submitting helpers that could stall behind
/// the caller's own pool task.
bool InParallelRegion();

}  // namespace extract

#endif  // EXTRACT_COMMON_THREAD_POOL_H_
