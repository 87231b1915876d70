#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "common/fault.h"

namespace extract {

namespace {

/// True on any ThreadPool worker thread. A ParallelFor issued from pool-run
/// work must not block a worker waiting on helper tasks that may be queued
/// behind other blocked workers (classic pool self-deadlock when every
/// worker is a waiter), so it degrades to the inline loop instead.
thread_local bool on_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] {
      on_pool_worker = true;
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

size_t ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

size_t ParsePoolThreadsOverride(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  size_t threads = 0;
  for (const char* c = value; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 0;
    threads = threads * 10 + static_cast<size_t>(*c - '0');
    if (threads > 512) return 512;
  }
  return threads;  // 0 stays 0 ("no override")
}

size_t ThreadPool::ConfiguredThreads() {
  static const size_t threads = [] {
    size_t override = ParsePoolThreadsOverride(std::getenv("EXTRACT_POOL_THREADS"));
    return override > 0 ? override : HardwareThreads();
  }();
  return threads;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  Cancel();
  Wait();
}

void TaskGroup::Submit(std::function<void()> task) {
  // Models a scheduler that silently loses work. Dropped before the
  // outstanding count is bumped, so Wait() still quiesces; consumers of
  // group work must be work-conserving (streams are: another producer or
  // the consumer itself picks up the slot).
  if (EXTRACT_FAULT_FIRED("pool.submit")) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->outstanding;
  }
  pool_->Submit([state = state_, task = std::move(task)] {
    if (!state->cancelled.load(std::memory_order_acquire)) task();
    std::lock_guard<std::mutex> lock(state->mu);
    if (--state->outstanding == 0) state->done_cv.notify_all();
  });
}

void TaskGroup::Cancel() {
  state_->cancelled.store(true, std::memory_order_release);
}

bool TaskGroup::cancelled() const {
  return state_->cancelled.load(std::memory_order_acquire);
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done_cv.wait(lock, [this] { return state_->outstanding == 0; });
}

size_t TaskGroup::outstanding() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->outstanding;
}

ThreadPool& SharedThreadPool() {
  // Leaked on purpose: workers must stay valid for serving paths that run
  // during static destruction, and the OS reclaims threads at exit anyway.
  static ThreadPool* pool = new ThreadPool(ThreadPool::ConfiguredThreads());
  return *pool;
}

namespace {

/// True while a non-worker caller is working through its own ParallelFor
/// indices: a nested ParallelFor issued by fn on the calling thread runs
/// inline rather than fanning out again. (Work running on pool workers —
/// ParallelFor helpers included — is covered by on_pool_worker.)
thread_local bool in_parallel_region = false;

}  // namespace

namespace {

/// The shared state of one parallel region. Heap-owned (shared_ptr) by the
/// caller and every helper task, so the caller may return — or unwind — as
/// soon as all *indices* are done, even while late-scheduled helpers are
/// still queued on the pool: they wake against valid heap state, find no
/// indices left, and drop their reference.
struct ParallelRegion {
  ParallelRegion(size_t n, std::function<void(size_t)> fn)
      : n(n), fn(std::move(fn)) {}

  const size_t n;
  const std::function<void(size_t)> fn;  ///< owned: outlives caller's copy
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;  ///< indices fully executed; guarded by mu
  /// First exception thrown by fn, rethrown on the calling thread after
  /// every index has finished. The library is exception-free by design,
  /// but a throwing fn must never let the caller unwind while helpers
  /// still run against its stack frame (fn captures caller locals by
  /// reference), and must not escape into a pool worker's loop.
  std::exception_ptr error;  ///< guarded by mu

  /// Claims and runs indices until none remain, then accounts for them.
  void Work() {
    size_t ran = 0;
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      ++ran;
    }
    if (ran == 0) return;
    // Notify under the lock: the waiter re-checks under mu, and cannot
    // release its (shared) ownership of this state before we unlock.
    std::lock_guard<std::mutex> lock(mu);
    completed += ran;
    if (completed == n) done_cv.notify_one();
  }
};

}  // namespace

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  if (num_threads == 0) num_threads = ThreadPool::ConfiguredThreads();
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1 || in_parallel_region || on_pool_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto region = std::make_shared<ParallelRegion>(n, fn);
  ThreadPool& pool = SharedThreadPool();
  for (size_t w = 0; w + 1 < num_threads; ++w) {
    pool.Submit([region] { region->Work(); });
  }
  // The caller is a worker too; it waits for index completion, not helper
  // scheduling, so a busy pool queue cannot stall a region the caller
  // finished on its own. Work() contains any exception from fn inside the
  // region (so the caller cannot unwind past this wait while helpers still
  // reference its frame); the first one is rethrown below, after every
  // index has finished.
  struct RegionFlag {
    RegionFlag() { in_parallel_region = true; }
    ~RegionFlag() { in_parallel_region = false; }
  };
  {
    RegionFlag flag;
    region->Work();
  }
  std::unique_lock<std::mutex> lock(region->mu);
  region->done_cv.wait(lock, [&] { return region->completed == n; });
  if (region->error) std::rethrow_exception(region->error);
}

void ParallelForChunked(size_t n, size_t num_threads,
                        const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t width =
      num_threads == 0 ? ThreadPool::ConfiguredThreads() : num_threads;
  const size_t chunks = std::min(n, std::max<size_t>(1, width * 4));
  ParallelFor(chunks, num_threads, [&](size_t c) {
    fn(c * n / chunks, (c + 1) * n / chunks);
  });
}

bool InParallelRegion() { return on_pool_worker || in_parallel_region; }

}  // namespace extract
