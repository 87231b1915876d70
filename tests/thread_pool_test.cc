#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

namespace extract {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 100);
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, WaitCanBeReusedAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

// The EXTRACT_POOL_THREADS parsing contract (the pool itself is created
// once per process, so the parser is what can be pinned here): digits-only,
// clamped, and "no override" on anything else.
TEST(ThreadPoolTest, ParsePoolThreadsOverride) {
  EXPECT_EQ(ParsePoolThreadsOverride(nullptr), 0u);
  EXPECT_EQ(ParsePoolThreadsOverride(""), 0u);
  EXPECT_EQ(ParsePoolThreadsOverride("0"), 0u);
  EXPECT_EQ(ParsePoolThreadsOverride("1"), 1u);
  EXPECT_EQ(ParsePoolThreadsOverride("8"), 8u);
  EXPECT_EQ(ParsePoolThreadsOverride("512"), 512u);
  EXPECT_EQ(ParsePoolThreadsOverride("4096"), 512u);  // clamped
  EXPECT_EQ(ParsePoolThreadsOverride("99999999999999999999"), 512u);
  EXPECT_EQ(ParsePoolThreadsOverride("-2"), 0u);
  EXPECT_EQ(ParsePoolThreadsOverride("4x"), 0u);
  EXPECT_EQ(ParsePoolThreadsOverride(" 4"), 0u);
  EXPECT_EQ(ParsePoolThreadsOverride("auto"), 0u);
}

TEST(TaskGroupTest, RunsEverySubmittedTaskAndWaits) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    group.Submit([&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(group.outstanding(), 0u);
  EXPECT_FALSE(group.cancelled());
}

TEST(TaskGroupTest, CancelSkipsUnstartedTasks) {
  ThreadPool pool(1);  // one worker: everything behind the blocker queues
  TaskGroup group(&pool);
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  group.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    group.Submit([&count] { count.fetch_add(1); });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  group.Cancel();
  EXPECT_TRUE(group.cancelled());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();
  // The blocker had started and ran to completion; the queued tasks were
  // skipped but still count as finished.
  EXPECT_EQ(count.load(), 0);
  EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroupTest, DestructorWaitsForStartedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) {
      group.Submit([&count] { count.fetch_add(1); });
    }
    group.Wait();
  }  // destructor: cancel (no-op, drained) + wait must not hang
  EXPECT_EQ(count.load(), 8);
}

TEST(OnPoolWorkerTest, TrueOnlyOnPoolWorkers) {
  EXPECT_FALSE(OnPoolWorker());
  std::atomic<bool> on_worker{false};
  ThreadPool& pool = SharedThreadPool();
  pool.Submit([&on_worker] { on_worker.store(OnPoolWorker()); });
  pool.Wait();
  EXPECT_TRUE(on_worker.load());
}

TEST(ThreadPoolTest, ConfiguredThreadsIsStableAndPositive) {
  const size_t first = ThreadPool::ConfiguredThreads();
  EXPECT_GE(first, 1u);
  // Read once per process: later reads agree even if the env changes now.
  setenv("EXTRACT_POOL_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreads(), first);
  unsetenv("EXTRACT_POOL_THREADS");
}

}  // namespace
}  // namespace extract
