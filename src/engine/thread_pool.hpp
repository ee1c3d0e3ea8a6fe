// Striped thread pool: the engine's one background-execution primitive.
//
// A fixed set of workers, each owning a FIFO queue; Submit(stripe, fn)
// routes by `stripe % num_threads`, so jobs with equal stripes run on the
// same worker in submission order. The engine keys stripes by shard id,
// which serializes every freeze and compaction of one shard *by
// construction* — no per-shard job locking — while different shards
// proceed in parallel on different workers.
//
// Each worker's queue/running/stop state is guarded by its own annotated
// mutex (common/thread_annotations.hpp): the lock discipline here is
// compiler-checked under Clang's -Wthread-safety.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_annotations.hpp"

namespace wtrie::engine {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads)
      : workers_(std::max<size_t>(1, num_threads)) {
    for (Worker& w : workers_) {
      w.thread = std::thread([&w] { Run(w); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs every job already queued, then joins the workers.
  ~ThreadPool() {
    for (Worker& w : workers_) {
      {
        wt::MutexLock lk(w.mu);
        w.stop = true;
      }
      w.cv.NotifyAll();
    }
    for (Worker& w : workers_) w.thread.join();
  }

  /// Enqueues fn on the stripe's worker. Jobs with equal stripe keys run
  /// FIFO on one thread; jobs with different keys may run concurrently.
  void Submit(size_t stripe, std::function<void()> fn) {
    Worker& w = workers_[stripe % workers_.size()];
    {
      wt::MutexLock lk(w.mu);
      WT_ASSERT_MSG(!w.stop, "ThreadPool: Submit after shutdown began");
      w.queue.push_back(std::move(fn));
    }
    w.cv.NotifyOne();
  }

  /// Blocks until every job submitted before the call has finished. Jobs
  /// submitted concurrently with Drain may or may not be waited for.
  void Drain() {
    for (Worker& w : workers_) {
      wt::MutexLock lk(w.mu);
      while (!w.queue.empty() || w.running) w.idle_cv.Wait(w.mu);
    }
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Worker {
    wt::Mutex mu;
    wt::CondVar cv;       // work arrived / stop requested
    wt::CondVar idle_cv;  // queue drained and job finished
    std::deque<std::function<void()>> queue WT_GUARDED_BY(mu);
    bool running WT_GUARDED_BY(mu) = false;
    bool stop WT_GUARDED_BY(mu) = false;
    std::thread thread;
  };

  static void Run(Worker& w) {
    for (;;) {
      std::function<void()> job;
      {
        wt::MutexLock lk(w.mu);
        while (!w.stop && w.queue.empty()) w.cv.Wait(w.mu);
        if (w.queue.empty()) return;  // stop requested and nothing pending
        job = std::move(w.queue.front());
        w.queue.pop_front();
        w.running = true;
      }
      job();
      // Destroy the closure before reporting the job finished: what it
      // captured (a freeze holds the last reference to its memtable) must
      // be freed by the time Drain() returns.
      job = nullptr;
      {
        wt::MutexLock lk(w.mu);
        w.running = false;
        if (w.queue.empty()) w.idle_cv.NotifyAll();
      }
    }
  }

  // Workers are constructed in place and never relocated (mutexes are not
  // movable); the vector's size is fixed for the pool's lifetime.
  std::vector<Worker> workers_;
};

}  // namespace wtrie::engine
