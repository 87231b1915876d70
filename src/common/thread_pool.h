// A small fixed-size thread pool plus cancellable task groups, the
// concurrency substrate of streamed snippet serving (snippet/snippet_stream.h),
// which batch snippet generation and every streamed page run on.
//
// Design constraints, in keeping with the rest of the library:
//   * exception-free — tasks are plain std::function<void()>; fallible work
//     communicates through Status values captured by the closure;
//   * deterministic call sites — tasks write results into pre-sized slots,
//     so output ordering never depends on scheduling.

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
  /// and the width a snippet stream with num_threads == 0 fans out to.
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
/// any scoped owner). Snippet-stream workers run on this pool, so a
/// request's parallel work pays a task submit, not a thread spawn.
ThreadPool& SharedThreadPool();

/// \brief Parses an EXTRACT_POOL_THREADS-style value: digits only, clamped
/// to [1, 512]; 0 when `value` is null/empty/non-numeric (meaning "use the
/// hardware default"). Exposed so the parsing contract is unit-testable
/// without re-creating the process-wide pool.
size_t ParsePoolThreadsOverride(const char* value);

/// \brief True when the calling thread is a pool worker. Streaming
/// sessions opened there produce lazily inline instead of submitting
/// helpers that could stall behind the caller's own pool task.
bool OnPoolWorker();

}  // namespace extract

#endif  // EXTRACT_COMMON_THREAD_POOL_H_
