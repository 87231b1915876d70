#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/fault.h"

namespace extract {

namespace {

/// True on any ThreadPool worker thread (see OnPoolWorker).
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

bool OnPoolWorker() { return on_pool_worker; }

}  // namespace extract
