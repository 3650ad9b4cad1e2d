#include "por/serve/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "por/obs/registry.hpp"
#include "por/util/contracts.hpp"

namespace por::serve {

namespace {

thread_local std::size_t t_worker = Scheduler::kNotAWorker;

}  // namespace

// ---- Batch -----------------------------------------------------------------

Batch::Batch(std::size_t n, std::function<void(std::size_t)> body,
             std::function<void(Batch&)> on_complete)
    : size_(n),
      body_(std::move(body)),
      on_complete_(std::move(on_complete)),
      remaining_(n),
      done_flags_(std::make_unique<std::atomic<std::uint8_t>[]>(
          std::max<std::size_t>(n, 1))) {
  for (std::size_t i = 0; i < size_; ++i) {
    // por-atomic: init — flags zeroed before the batch is published
    done_flags_[i].store(0, std::memory_order_relaxed);
  }
}

bool Batch::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return complete_;
}

void Batch::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return complete_; });
  if (error_) std::rethrow_exception(error_);
}

void Batch::fail(std::exception_ptr error) {
  bool expected = false;
  if (failed_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = std::move(error);
  }
}

// ---- Scheduler -------------------------------------------------------------

Scheduler::Scheduler(const SchedulerOptions& options)
    : fault_plan_(options.fault_plan), alive_(0) {
  std::size_t n = options.workers;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  alive_.store(n, std::memory_order_release);

  obs::MetricsRegistry& registry = obs::current_registry();
  tasks_counter_ = &registry.counter("serve.sched.tasks");
  batches_counter_ = &registry.counter("serve.sched.batches");
  deaths_counter_ = &registry.counter("serve.sched.worker_deaths");
  requeued_counter_ = &registry.counter("serve.sched.requeued_tasks");
  alive_gauge_ = &registry.gauge("serve.sched.alive_workers");
  alive_gauge_->set(static_cast<double>(n));

  threads_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    // A joinable std::thread must never be destroyed.
    for (std::thread& thread : threads_) thread.join();
    throw;
  }
}

Scheduler::~Scheduler() {
  {
    // Abandoned batches still complete (the queue and the claiming
    // workers hold them); wait for the last one so no task outlives
    // the workers.
    std::unique_lock<std::mutex> lock(mutex_);
    drained_cv_.wait(lock, [this] { return active_ == 0; });
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::size_t Scheduler::current_worker() { return t_worker; }

void Scheduler::worker_loop(std::size_t worker) {
  t_worker = worker;
  std::uint64_t attempts = 0;  // this worker's task-attempt ordinal
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    // Claim one index under the lock: this is the exactly-once point.
    Range& front = queue_.front();
    std::shared_ptr<Batch> batch = front.batch;
    const std::size_t index = front.next++;
    if (front.next == front.end) queue_.pop_front();
    lock.unlock();

    // Fault hook (the vmpi plan at thread scope): the task-attempt
    // ordinal plays the role of Comm::fault_point's step.
    if (fault_plan_.kills_at(static_cast<int>(worker), attempts++)) {
      kill_worker(std::move(batch), index);
      return;
    }
    run_task(*batch, index);
    batch.reset();
    lock.lock();
  }
}

std::shared_ptr<Batch> Scheduler::submit(
    std::size_t n, std::function<void(std::size_t)> body,
    std::function<void(Batch&)> on_complete) {
  auto batch = std::shared_ptr<Batch>(
      new Batch(n, std::move(body), std::move(on_complete)));
  batches_counter_->add();

  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++active_;
    // Read under the lock: the last worker dies under the same lock
    // and fails whatever is queued, so a batch queued here always
    // either finds a worker or is failed with the rest.
    if (n > 0 && alive_.load(std::memory_order_acquire) > 0) {
      queue_.push_back(Range{batch, 0, n});
      queued = true;
    }
  }
  if (!queued) {
    if (n > 0) {
      batch->fail(std::make_exception_ptr(std::runtime_error(
          "serve::Scheduler: every worker is dead; batch rejected")));
    }
    complete_batch(*batch);
    return batch;
  }
  // One wakeup per index, at most one per worker: a woken worker that
  // finds the queue empty would only contend for the lock.  Busy
  // workers re-check the queue before they wait, so no index strands.
  const std::size_t wake = std::min(n, threads_.size());
  for (std::size_t i = 0; i < wake; ++i) work_available_.notify_one();
  return batch;
}

void Scheduler::run(std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  // The callback lives only for this call, so pass a non-owning ref.
  submit(n, [&body](std::size_t i) { body(i); })->wait();
}

void Scheduler::run_task(Batch& batch, std::size_t index) {
  // CONTRACT: first-result-wins — every index retires exactly once.
  // A double execution would mean two workers claimed one index and
  // the determinism guarantee is gone.
  // por-atomic: published-by-release — exactly-once token; the task's
  // hand-off is ordered by the queue mutex, not this flag
  const std::uint8_t prev =
      batch.done_flags_[index].exchange(1, std::memory_order_relaxed);
  POR_EXPECT(prev == 0, "task executed twice:", index);
  if (!batch.failed_.load(std::memory_order_acquire)) {
    try {
      batch.body_(index);
    } catch (...) {
      batch.fail(std::current_exception());
    }
  }
  tasks_counter_->add();
  retire(batch, 1);
}

void Scheduler::retire(Batch& batch, std::size_t count) {
  const std::size_t before =
      batch.remaining_.fetch_sub(count, std::memory_order_acq_rel);
  POR_EXPECT(before >= count, "batch accounting underflow");
  if (before == count) complete_batch(batch);
}

void Scheduler::complete_batch(Batch& batch) {
  {
    std::lock_guard<std::mutex> lock(batch.mutex_);
    batch.complete_ = true;
  }
  batch.cv_.notify_all();
  if (batch.on_complete_) batch.on_complete_(batch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
  }
  drained_cv_.notify_all();
}

void Scheduler::kill_worker(std::shared_ptr<Batch> batch, std::size_t index) {
  deaths_counter_->add();
  std::size_t alive = 0;
  std::deque<Range> orphaned;
  {
    // The decrement and the requeue share the lock with submit's
    // liveness check and with each other, so the last death always
    // sees every index any earlier death put back.
    std::lock_guard<std::mutex> lock(mutex_);
    alive = alive_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    queue_.push_front(Range{std::move(batch), index, index + 1});
    if (alive == 0) orphaned.swap(queue_);
  }
  alive_gauge_->set(static_cast<double>(alive));
  if (alive > 0) {
    // The death is transient from the batch's point of view: the work
    // is fine, only the worker is gone.  A survivor picks it up.
    requeued_counter_->add();
    work_available_.notify_one();
    return;
  }
  // Nobody left to run anything: the resilience taxonomy calls this
  // fatal, so every queued batch fails instead of hanging its waiters.
  // No task is in flight — each dead worker returned its claim.
  for (const Range& range : orphaned) {
    range.batch->fail(std::make_exception_ptr(std::runtime_error(
        "serve::Scheduler: every worker died mid-batch")));
    retire(*range.batch, range.end - range.next);
  }
}

std::uint64_t Scheduler::requeued_tasks() const {
  return requeued_counter_->value();
}

}  // namespace por::serve
