// por/serve/scheduler.hpp
//
// Lock-free work-stealing scheduler (DESIGN.md §11).  Replaces the
// static view partition of the batch drivers: instead of carving a
// batch of view-match tasks into fixed per-worker blocks up front,
// every worker owns a bounded Chase-Lev deque and steals from victims
// when its own runs dry, so an unlucky worker (slow views, noisy
// machine, a neighbour that died) never strands the rest of the batch.
//
// Topology — the classic injector + per-worker-deque arrangement:
//
//   submit() ──► JobChannel (MPMC injector) ──► worker pops a chunk
//                                               │  lazy binary split:
//                                               │  keep the front task,
//                                               ▼  publish the rest
//                                      own StealDeque ◄── thieves steal
//
// The scheduler owns its worker threads.  Idle workers block on a
// condition variable (no spinning); every publication of new work
// bumps an epoch so sleepers wake — the epoch handshake in worker_loop
// makes the sleep lost-wakeup-free.
//
// Determinism invariant: a batch is `body(i)` for i in [0, n).  Each
// index is executed exactly once, on exactly one worker, no matter the
// worker count or the steal interleaving — each index lives in exactly
// one chunk at any moment, a chunk is consumed by exactly one pop or
// one successful steal, and first-result-wins is enforced (and
// contract-checked) by a per-task done flag.  A body that writes
// result[i] from task i therefore produces output bitwise-identical
// to the serial loop.
//
// Fault model (por::resilience, reusing the PR 5 vmpi::FaultPlan at
// thread scope): KillRule{rank = worker ordinal, at_step = per-worker
// task-attempt ordinal}.  A killed worker stops participating — but
// first its in-flight chunk is requeued through the injector and its
// deque remains stealable, so the batch completes on the survivors
// instead of failing.  Only when *every* worker is dead are the active
// batches failed (resilience::ErrorKind::kFatal territory: there is
// nobody left to run anything).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "por/serve/job_channel.hpp"
#include "por/serve/steal_deque.hpp"
#include "por/vmpi/fault.hpp"

namespace por::obs {
class Counter;
class Gauge;
}  // namespace por::obs

namespace por::serve {

struct SchedulerOptions {
  /// Worker threads (0 → hardware_concurrency).
  std::size_t workers = 0;
  /// Per-worker deque capacity (rounded up to a power of two); a full
  /// deque overflows into the injector channel.
  std::size_t deque_capacity = 256;
  /// Injector channel capacity (rounded up to a power of two).
  std::size_t channel_capacity = 8192;
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

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  const std::size_t size_;
  std::function<void(std::size_t)> body_;
  std::function<void(Batch&)> on_complete_;
  std::uint32_t slot_ = kNoSlot;  ///< kNoSlot until registered
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
  /// once each.  `on_complete` (optional) runs on the worker that
  /// retires the last task, before wait() unblocks.  Thread-safe; may
  /// be called from task bodies and completion callbacks.
  std::shared_ptr<Batch> submit(std::size_t n,
                                std::function<void(std::size_t)> body,
                                std::function<void(Batch&)> on_complete = {});

  /// submit + wait: the work-stealing drop-in for a serial for-loop.
  /// Rethrows the first task exception.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Ordinal in [0, workers()) of the calling thread within the
  /// scheduler that runs it; kNotAWorker on any other thread.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);
  [[nodiscard]] static std::size_t current_worker();

  [[nodiscard]] std::size_t workers() const { return workers_.size(); }
  [[nodiscard]] std::size_t alive_workers() const {
    return alive_.load(std::memory_order_acquire);
  }
  /// Successful steals across all workers so far.
  [[nodiscard]] std::uint64_t steals() const;
  /// Tasks requeued from killed workers' in-flight chunks.
  [[nodiscard]] std::uint64_t requeued_tasks() const;

 private:
  struct Worker {
    explicit Worker(std::size_t deque_capacity) : deque(deque_capacity) {}
    StealDeque<std::uint64_t> deque;
    std::atomic<bool> dead{false};
    std::uint64_t attempts = 0;  ///< owner-thread only (fault-plan step)
  };

  void worker_loop(std::size_t worker);
  /// Wake sleeping workers: call after making new work visible.
  void notify();
  /// Tell every worker to exit, then join them.
  void stop_workers();
  bool run_one(std::size_t worker);
  bool next_chunk(std::size_t worker, std::uint64_t& out);
  void execute_chunk(std::size_t worker, std::uint64_t packed);
  void run_task(Batch& batch, std::uint32_t index);
  void finish_tasks(Batch& batch, std::size_t count);
  void complete_batch(Batch& batch);
  void kill_worker(std::size_t worker, std::uint64_t remaining_chunk);
  void fail_all_active(const std::string& why);
  void release_slot(std::uint32_t slot);
  [[nodiscard]] std::shared_ptr<Batch> batch_at(std::uint32_t slot);
  void inject(std::uint64_t chunk);

  SchedulerOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  JobChannel<std::uint64_t> injector_;
  std::atomic<std::size_t> alive_;

  std::mutex slots_mutex_;
  std::condition_variable drained_cv_;  ///< waits on active_ == 0
  std::vector<std::shared_ptr<Batch>> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_ = 0;

  obs::Counter* tasks_counter_;
  obs::Counter* batches_counter_;
  obs::Counter* steals_counter_;
  obs::Counter* overflow_counter_;
  obs::Counter* deaths_counter_;
  obs::Counter* requeued_counter_;
  obs::Gauge* alive_gauge_;

  std::mutex idle_mutex_;
  std::condition_variable work_available_;
  std::uint64_t epoch_ = 1;  ///< guarded by idle_mutex_; bumped by notify()
  bool stopping_ = false;    ///< guarded by idle_mutex_

  // Started at the end of the constructor and joined at the start of the
  // destructor: worker threads only ever see a fully-built scheduler.
  std::vector<std::thread> threads_;
};

}  // namespace por::serve
