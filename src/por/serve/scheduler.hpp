// por/serve/scheduler.hpp
//
// The library's worker pool (DESIGN.md §11): one mutex-guarded queue
// of index ranges and a fixed set of worker threads.  The unit of work
// is a view, which costs hundreds of microseconds, so a lock per
// claimed index is noise next to the task it hands out.
//
//   submit() ──► queue of {batch, next, end} ranges ──► worker claims
//                                                      one index
//
// A worker takes the mutex, claims the front range's next index
// (advancing `next`, and dropping the range once it is empty), then
// runs the task without holding the lock.  Idle workers block on a
// condition variable; they never spin.  A submit wakes at most one
// idle worker per index, so a small batch does not stir the whole pool.
//
// Determinism invariant: a batch is `body(i)` for i in [0, n).  Each
// index is executed exactly once, on exactly one worker, no matter the
// worker count: an index is claimed under the lock, so no two workers
// can claim the same one, and first-result-wins is contract-checked by
// a per-task done flag.  A body that writes result[i] from task i
// therefore produces output bitwise-identical to the serial loop.
//
// Fault model (por::resilience, reusing the vmpi::FaultPlan at thread
// scope): KillRule{rank = worker ordinal, at_step = per-worker
// task-attempt ordinal}.  A killed worker pushes the index it had just
// claimed back to the front of the queue and exits, so the batch
// completes on the survivors.  Only when *every* worker is dead does
// each batch still in the queue fail (resilience::ErrorKind::kFatal
// territory: there is nobody left to run anything).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "por/vmpi/fault.hpp"

namespace por::obs {
class Counter;
class Gauge;
}  // namespace por::obs

namespace por::serve {

struct SchedulerOptions {
  /// Worker threads (0 → hardware_concurrency).
  std::size_t workers = 0;
  /// Deterministic worker-death injection: KillRule::rank names a
  /// worker ordinal, KillRule::at_step its 0-based task-attempt
  /// ordinal.  The drop/delay/corrupt message rules do not apply here.
  vmpi::FaultPlan fault_plan;
};

class Scheduler;

/// One submitted batch of index tasks.  Handles are shared_ptr: the
/// scheduler keeps its own reference until the batch completes, so
/// dropping the handle never cancels or leaks work.
class Batch {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool done() const;
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }
  /// Block until every task has been accounted for; rethrows the first
  /// task exception (or the all-workers-dead error) if the batch failed.
  void wait();

 private:
  friend class Scheduler;
  Batch(std::size_t n, std::function<void(std::size_t)> body,
        std::function<void(Batch&)> on_complete);
  void fail(std::exception_ptr error);

  const std::size_t size_;
  std::function<void(std::size_t)> body_;
  std::function<void(Batch&)> on_complete_;
  std::atomic<std::size_t> remaining_;
  std::atomic<bool> failed_{false};
  // First-result-wins guard: exchange(1) must return 0 exactly once
  // per index (POR_EXPECT in run_task).
  std::unique_ptr<std::atomic<std::uint8_t>[]> done_flags_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool complete_ = false;
  std::exception_ptr error_;
};

class Scheduler final {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Waits for every active batch to finish (or fail), then joins the
  /// workers.  Do not destroy a scheduler from inside one of its tasks.
  ~Scheduler();

  /// Asynchronous batch: body(i) for i in [0, n), any worker, exactly
  /// once each.  `on_complete` (optional) runs on the thread that
  /// retires the last task, once the batch is marked complete (so it
  /// may call wait() to collect the error).  Thread-safe; may be
  /// called from task bodies and completion callbacks.
  std::shared_ptr<Batch> submit(std::size_t n,
                                std::function<void(std::size_t)> body,
                                std::function<void(Batch&)> on_complete = {});

  /// submit + wait: the pooled drop-in for a serial for-loop.
  /// Rethrows the first task exception.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Ordinal in [0, workers()) of the calling thread within the
  /// scheduler that runs it; kNotAWorker on any other thread.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);
  [[nodiscard]] static std::size_t current_worker();

  [[nodiscard]] std::size_t workers() const { return threads_.size(); }
  [[nodiscard]] std::size_t alive_workers() const {
    return alive_.load(std::memory_order_acquire);
  }
  /// Always 0: one shared queue leaves nothing to steal.  Kept for
  /// callers that report the figure.
  [[nodiscard]] std::uint64_t steals() const { return 0; }
  /// Tasks requeued by killed workers.
  [[nodiscard]] std::uint64_t requeued_tasks() const;

 private:
  /// Indices [next, end) of one batch that no worker has claimed yet.
  struct Range {
    std::shared_ptr<Batch> batch;
    std::size_t next;
    std::size_t end;
  };

  void worker_loop(std::size_t worker);
  void run_task(Batch& batch, std::size_t index);
  /// Account `count` tasks of `batch` as done; completes it at zero.
  void retire(Batch& batch, std::size_t count);
  void complete_batch(Batch& batch);
  void kill_worker(std::shared_ptr<Batch> batch, std::size_t index);

  vmpi::FaultPlan fault_plan_;
  std::atomic<std::size_t> alive_;

  std::mutex mutex_;
  std::condition_variable work_available_;  ///< waits on queue_ / stopping_
  std::condition_variable drained_cv_;      ///< waits on active_ == 0
  std::deque<Range> queue_;                 ///< guarded by mutex_
  std::size_t active_ = 0;  ///< submitted, not yet complete; mutex_
  bool stopping_ = false;   ///< guarded by mutex_

  obs::Counter* tasks_counter_;
  obs::Counter* batches_counter_;
  obs::Counter* deaths_counter_;
  obs::Counter* requeued_counter_;
  obs::Gauge* alive_gauge_;

  // Started at the end of the constructor and joined at the start of the
  // destructor: worker threads only ever see a fully-built scheduler.
  std::vector<std::thread> threads_;
};

}  // namespace por::serve
