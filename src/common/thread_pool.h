// A fixed-size thread pool plus ParallelFor. Used by the AMPC/MPC runtimes
// to execute logical machines' work on physical cores.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ampc {

/// Fixed-size worker pool whose one entry point, RunTasks, shares a
/// call's tasks between the calling thread and the workers.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs task(i) for every i in [0, n) and returns once all of them
  /// have finished. The calling thread and up to min(num_threads, n - 1)
  /// workers claim indices from the call's own counter, so the caller
  /// never only waits, and a call made from inside a task (a nested
  /// ParallelFor) or while every worker is busy still completes. A task
  /// must not throw. No-op for n <= 0.
  void RunTasks(int64_t n, const std::function<void(int64_t)>& task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The process's one pool, sized to the hardware concurrency. Graph
  /// set-up and every sim::Cluster not handed another pool run on it,
  /// so a process starts its host threads once, not once per job.
  static ThreadPool& Global();

 private:
  struct Call;

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  // One entry per helper a RunTasks call asked for.
  std::deque<std::shared_ptr<Call>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// How many chunks a parallel loop over `pool` splits its range into:
/// 4 per thread, enough slack that an unlucky chunk does not serialize
/// the tail, few enough that chunk dispatch is noise.
int64_t DefaultChunksForPool(const ThreadPool& pool);

/// Runs fn(i) for i in [begin, end) on `pool`, splitting the range into
/// chunks of at least `grain` indices. Blocks until complete. Safe to call
/// with begin >= end (no-op), and from inside a task of the same pool.
void ParallelFor(ThreadPool& pool, int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t)>& fn);

/// Runs fn(chunk_begin, chunk_end) over disjoint chunks covering
/// [begin, end). Lower overhead than per-index dispatch.
void ParallelForChunked(ThreadPool& pool, int64_t begin, int64_t end,
                        int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn);

}  // namespace ampc
