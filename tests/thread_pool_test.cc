#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace ampc {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.RunTasks(100, [&count](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, NoTasksReturns) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.RunTasks(0, [&count](int64_t) { count.fetch_add(1); });
  pool.RunTasks(-3, [&count](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.RunTasks(10, [&count](int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(RunTasksTest, EachIndexRunsExactlyOnce) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{2},
                            int64_t{threads}, int64_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.RunTasks(n, [&hits](int64_t i) { hits[i].fetch_add(1); });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads " << threads << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(RunTasksTest, ConcurrentCallersEachGetTheirOwnTasks) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  std::vector<std::atomic<int64_t>> sums(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.RunTasks(500, [&sums, c](int64_t i) { sums[c].fetch_add(i); });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), 20 * (499 * 500 / 2)) << "caller " << c;
  }
}

TEST(RunTasksTest, NestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.RunTasks(8, [&](int64_t) {
    ParallelFor(pool, 0, 1000, 1, [&](int64_t i) { total.fetch_add(i); });
  });
  EXPECT_EQ(total.load(), 8 * (999 * 1000 / 2));
}

// A call made while every worker is busy runs all its tasks on the
// caller. Its helpers reach the workers only after it has returned and
// its task is gone, and must then leave without running anything.
TEST(RunTasksTest, RunsOnCallerWhileWorkersAreBlocked) {
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  // kThreads + 1 tasks: every worker and the blocking thread hold one.
  std::thread blocker([&] {
    pool.RunTasks(kThreads + 1, [&](int64_t) {
      entered.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (entered.load() < kThreads + 1) std::this_thread::yield();

  std::vector<std::thread::id> ran_on(100);
  pool.RunTasks(100, [&ran_on](int64_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  const std::thread::id self = std::this_thread::get_id();
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(), self), 100);

  release.store(true);
  blocker.join();
  // The pool still works once the late helpers have come and gone.
  std::atomic<int> count{0};
  pool.RunTasks(64, [&count](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

// The ordering each machine's lock-free query caches rely on: what task i
// of one RunTasks call writes with plain stores and allocations, task i
// of the next call reads, on whatever thread it runs. Each call's tasks
// meet at a relaxed (so non-ordering) barrier, so they run on 5 distinct
// threads. Task i also takes a relay slot that moves to another task
// every call, so a slot changes threads even if the pool hands out
// indices in a stable order. CI runs this under TSAN, which must report
// no race: only the return of the previous call orders these accesses.
TEST(RunTasksTest, NextCallSeesThePreviousCallsPlainWrites) {
  constexpr int kThreads = 4;
  constexpr int64_t kTasks = kThreads + 1;  // the caller runs one too
  constexpr int kCalls = 500;
  ThreadPool pool(kThreads);
  std::vector<std::vector<int64_t>> own(kTasks), relay(kTasks);
  std::atomic<int64_t> entered{0};
  std::atomic<int64_t> wrong{0};
  auto check_and_append = [&wrong](std::vector<int64_t>& log, int call) {
    if (static_cast<int>(log.size()) != call ||
        (call > 0 && log.back() != call - 1)) {
      wrong.fetch_add(1);
    }
    log.push_back(call);
  };
  for (int call = 0; call < kCalls; ++call) {
    pool.RunTasks(kTasks, [&, call](int64_t i) {
      entered.fetch_add(1, std::memory_order_relaxed);
      while (entered.load(std::memory_order_relaxed) < (call + 1) * kTasks) {
        std::this_thread::yield();
      }
      check_and_append(own[i], call);
      check_and_append(relay[(i + call) % kTasks], call);
    });
  }
  EXPECT_EQ(wrong.load(), 0);
  for (int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(own[i].size(), static_cast<size_t>(kCalls));
    EXPECT_EQ(relay[i].size(), static_cast<size_t>(kCalls));
  }
}

TEST(ParallelForTest, CoversExactRange) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, 1000, 1, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ParallelFor(pool, 5, 5, 1, [&](int64_t) { ++count; });
  ParallelFor(pool, 7, 3, 1, [&](int64_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ParallelForChunkedTest, ChunksPartitionRange) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelForChunked(pool, 10, 1010, 1, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  int64_t expect = 10;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_LT(lo, hi);
    expect = hi;
  }
  EXPECT_EQ(expect, 1010);
}

TEST(ParallelForTest, LargeGrainRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  ParallelFor(pool, 0, 10, 1000, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelForTest, ConcurrentCallersDoNotInterfere) {
  ThreadPool pool(8);
  std::atomic<int64_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &total] {
      ParallelFor(pool, 0, 2500, 1, [&](int64_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 10000);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  ParallelFor(ThreadPool::Global(), 0, 64, 1,
              [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace ampc
