#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace ampc {

// One RunTasks call, shared by its caller and its helpers. A helper that
// is dequeued after the last index was claimed still reads `next`, so the
// call's state lives in a shared_ptr rather than in the caller's frame;
// `task`, which does live there, is read only after claiming an index
// below n, and the caller returns only once every such index is done.
struct ThreadPool::Call {
  // Claims and runs indices until none is left. A task that throws ends
  // the program, on the caller as on a worker.
  void Drain() noexcept {
    int64_t ran = 0;
    for (int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      (*task)(i);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += ran;
    if (done == n) done_cv.notify_all();
  }

  const int64_t n;
  const std::function<void(int64_t)>* const task;
  std::atomic<int64_t> next{0};  // the lowest unclaimed index
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t done = 0;  // indices finished; guarded by mu
};

ThreadPool::ThreadPool(int num_threads) {
  AMPC_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::RunTasks(int64_t n,
                          const std::function<void(int64_t)>& task) {
  if (n <= 0) return;
  const auto call = std::make_shared<Call>(n, &task);
  const int helpers =
      static_cast<int>(std::min<int64_t>(num_threads(), n - 1));
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.insert(queue_.end(), helpers, call);
    }
    for (int h = 0; h < helpers; ++h) work_cv_.notify_one();
  }
  call->Drain();
  std::unique_lock<std::mutex> lock(call->mu);
  call->done_cv.wait(lock, [&call] { return call->done == call->n; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Call> call;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shut down, nothing left to help with
      call = std::move(queue_.front());
      queue_.pop_front();
    }
    call->Drain();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

int64_t DefaultChunksForPool(const ThreadPool& pool) {
  return 4 * static_cast<int64_t>(pool.num_threads());
}

void ParallelForChunked(ThreadPool& pool, int64_t begin, int64_t end,
                        int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t n = end - begin;
  const int64_t max_chunks = DefaultChunksForPool(pool);
  const int64_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);
  if (n <= chunk) {
    fn(begin, end);
    return;
  }
  pool.RunTasks((n + chunk - 1) / chunk, [&](int64_t c) {
    const int64_t lo = begin + c * chunk;
    fn(lo, std::min(end, lo + chunk));
  });
}

void ParallelFor(ThreadPool& pool, int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t)>& fn) {
  ParallelForChunked(pool, begin, end, grain,
                     [&fn](int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) fn(i);
                     });
}

}  // namespace ampc
