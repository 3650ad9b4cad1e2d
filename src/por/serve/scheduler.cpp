#include "por/serve/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "por/obs/registry.hpp"
#include "por/util/contracts.hpp"

namespace por::serve {

namespace {

// Chunk encoding: 16-bit batch slot | 24-bit lo | 24-bit hi (exclusive).
// 24 bits bound a batch at ~16.7M tasks — two thousand paper-scale
// view stacks — and keep a chunk a single trivially-copyable word the
// deque and channel cells can carry lock-free.
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << 24) - 1;
constexpr std::uint32_t kMaxSlots = 1u << 16;

constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t lo,
                             std::uint32_t hi) {
  return (std::uint64_t{slot} << 48) | (std::uint64_t{lo} << 24) |
         std::uint64_t{hi};
}

struct Unpacked {
  std::uint32_t slot;
  std::uint32_t lo;
  std::uint32_t hi;
};

constexpr Unpacked unpack(std::uint64_t chunk) {
  return Unpacked{static_cast<std::uint32_t>(chunk >> 48),
                  static_cast<std::uint32_t>((chunk >> 24) & kIndexMask),
                  static_cast<std::uint32_t>(chunk & kIndexMask)};
}

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
    : options_(options),
      injector_(options.channel_capacity),
      alive_(0) {
  std::size_t n = options.workers;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(options.deque_capacity));
  }
  alive_.store(n, std::memory_order_release);

  obs::MetricsRegistry& registry = obs::current_registry();
  tasks_counter_ = &registry.counter("serve.sched.tasks");
  batches_counter_ = &registry.counter("serve.sched.batches");
  steals_counter_ = &registry.counter("serve.sched.steals");
  overflow_counter_ = &registry.counter("serve.sched.overflow");
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
    stop_workers();  // a joinable std::thread must never be destroyed
    throw;
  }
}

Scheduler::~Scheduler() {
  {
    // Abandoned batches still complete (the slot table holds them);
    // wait for the last one so no task outlives the workers.
    std::unique_lock<std::mutex> lock(slots_mutex_);
    drained_cv_.wait(lock, [this] { return active_ == 0; });
  }
  stop_workers();
}

void Scheduler::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::size_t Scheduler::current_worker() { return t_worker; }

void Scheduler::worker_loop(std::size_t worker) {
  t_worker = worker;
  // Epoch handshake with notify(): the worker records the epoch
  // *before* polling for work, so a producer that publishes work and
  // bumps the epoch concurrently always either (a) is seen by the
  // poll, or (b) changes the epoch and defeats the sleep predicate.
  // Idle workers therefore block — never spin, never miss a wakeup.
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(idle_mutex_);
      work_available_.wait(
          lock, [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
    }
    while (run_one(worker)) {
    }
  }
}

void Scheduler::notify() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    ++epoch_;
  }
  work_available_.notify_all();
}

std::shared_ptr<Batch> Scheduler::submit(
    std::size_t n, std::function<void(std::size_t)> body,
    std::function<void(Batch&)> on_complete) {
  POR_EXPECT(n <= kIndexMask, "batch too large for the chunk encoding:", n);
  auto batch = std::shared_ptr<Batch>(
      new Batch(n, std::move(body), std::move(on_complete)));
  batches_counter_->add();

  if (n == 0) {
    complete_batch(*batch);
    return batch;
  }
  if (alive_.load(std::memory_order_acquire) == 0) {
    batch->fail(std::make_exception_ptr(std::runtime_error(
        "serve::Scheduler: every worker is dead; batch rejected")));
    complete_batch(*batch);
    return batch;
  }

  std::uint32_t slot = 0;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      POR_EXPECT(slots_.size() < kMaxSlots,
                 "too many concurrent batches:", slots_.size());
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot] = batch;
    ++active_;
  }
  batch->slot_ = slot;

  inject(pack(slot, 0, static_cast<std::uint32_t>(n)));
  notify();
  return batch;
}

void Scheduler::run(std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  // The callback lives only for this call, so pass a non-owning ref.
  submit(n, [&body](std::size_t i) { body(i); })->wait();
}

bool Scheduler::run_one(std::size_t worker) {
  POR_EXPECT(worker < workers_.size(), "worker ordinal out of range:", worker);
  if (workers_[worker]->dead.load(std::memory_order_acquire)) return false;
  std::uint64_t chunk = 0;
  if (!next_chunk(worker, chunk)) return false;
  execute_chunk(worker, chunk);
  return true;
}

bool Scheduler::next_chunk(std::size_t worker, std::uint64_t& out) {
  Worker& me = *workers_[worker];
  // 1. Own deque (LIFO: freshest split, hottest cache lines).
  if (me.deque.pop(out)) return true;
  // 2. The injector: new batches and overflow/requeue traffic.
  if (injector_.try_pop(out)) return true;
  // 3. Steal, scanning victims round-robin from our right neighbour.
  //    Dead workers stay in the rotation on purpose: their deques may
  //    still hold work nobody requeued (death leaves the deque intact).
  const std::size_t n = workers_.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (workers_[(worker + i) % n]->deque.steal(out)) {
      steals_counter_->add();
      return true;
    }
  }
  return false;
}

void Scheduler::execute_chunk(std::size_t worker, std::uint64_t packed) {
  const Unpacked c = unpack(packed);
  const std::shared_ptr<Batch> batch = batch_at(c.slot);
  // Live schedulers never free a slot while chunks reference it (a
  // batch completes only after all n tasks are accounted for); stale
  // chunks exist only after fail_all_active, which implies no live
  // worker can be here.
  POR_EXPECT(batch != nullptr, "chunk references a freed batch slot");
  POR_EXPECT(c.lo < c.hi && c.hi <= batch->size_, "malformed chunk range");

  Worker& me = *workers_[worker];
  std::uint32_t lo = c.lo;
  std::uint32_t hi = c.hi;

  // Lazy binary splitting: keep the front task, publish the upper half
  // for thieves, repeat.  If both the deque and the injector are full,
  // stop splitting and run the remainder inline — progress is never
  // blocked on queue space.
  bool published = false;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint64_t upper = pack(c.slot, mid, hi);
    if (me.deque.push(upper)) {
      published = true;
      hi = mid;
      continue;
    }
    if (injector_.try_push(upper)) {
      overflow_counter_->add();
      published = true;
      hi = mid;
      continue;
    }
    break;
  }
  if (published) notify();

  for (std::uint32_t i = lo; i < hi; ++i) {
    // Fault hook (PR 5 plan at thread scope): this worker's task-
    // attempt ordinal plays the role of Comm::fault_point's step.
    const std::uint64_t step = me.attempts++;
    if (options_.fault_plan.kills_at(static_cast<int>(worker), step)) {
      kill_worker(worker, pack(c.slot, i, hi));
      return;
    }
    run_task(*batch, i);
  }
}

void Scheduler::run_task(Batch& batch, std::uint32_t index) {
  // CONTRACT: first-result-wins — every index retires exactly once.
  // A double execution would mean a chunk was duplicated somewhere in
  // the deque/channel protocol and the determinism guarantee is gone.
  // por-atomic: published-by-release — exactly-once token; the job payload
  // hand-off is ordered by the deque/channel protocol, not this flag
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
  finish_tasks(batch, 1);
}

void Scheduler::finish_tasks(Batch& batch, std::size_t count) {
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
  if (batch.slot_ != Batch::kNoSlot) release_slot(batch.slot_);
}

void Scheduler::kill_worker(std::size_t worker,
                            std::uint64_t remaining_chunk) {
  Worker& me = *workers_[worker];
  me.dead.store(true, std::memory_order_release);
  deaths_counter_->add();
  const std::size_t alive =
      alive_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  alive_gauge_->set(static_cast<double>(alive));

  if (alive == 0) {
    // Nobody left to requeue onto: the resilience taxonomy calls this
    // fatal, so every active batch fails instead of hanging waiters.
    fail_all_active("serve::Scheduler: every worker died mid-batch");
    return;
  }

  // The death is transient from the batch's point of view: the work is
  // fine, only the worker is gone.  Requeue the in-flight chunk for
  // the survivors; whatever else sits in our deque stays stealable.
  const Unpacked c = unpack(remaining_chunk);
  requeued_counter_->add(c.hi - c.lo);
  if (!injector_.try_push(remaining_chunk) &&
      !me.deque.push(remaining_chunk)) {
    // Both full — survivors are drowning in work; wait them out (exit
    // if the last survivor dies and fails everything).
    while (alive_.load(std::memory_order_acquire) > 0 &&
           !injector_.try_push(remaining_chunk)) {
      std::this_thread::yield();
    }
  }
  notify();
}

void Scheduler::fail_all_active(const std::string& why) {
  std::vector<std::shared_ptr<Batch>> active;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (const auto& batch : slots_) {
      if (batch) active.push_back(batch);
    }
  }
  for (const auto& batch : active) {
    batch->fail(std::make_exception_ptr(std::runtime_error(why)));
    // No worker is alive, so nobody races this accounting: retire all
    // outstanding tasks at once and complete the batch.
    const std::size_t outstanding =
        batch->remaining_.exchange(0, std::memory_order_acq_rel);
    if (outstanding > 0) complete_batch(*batch);
  }
}

void Scheduler::release_slot(std::uint32_t slot) {
  std::shared_ptr<Batch> retired;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    // fail_all_active may have released this slot concurrently with a
    // straggling completion; releasing twice would corrupt the free
    // list, so only the holder of the live reference retires it.
    if (slot >= slots_.size() || !slots_[slot]) return;
    retired = std::move(slots_[slot]);
    slots_[slot].reset();
    free_slots_.push_back(slot);
    --active_;
  }
  drained_cv_.notify_all();
}

std::shared_ptr<Batch> Scheduler::batch_at(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slot < slots_.size() ? slots_[slot] : nullptr;
}

void Scheduler::inject(std::uint64_t chunk) {
  // Blocking injector push, used by submit() only (workers never call
  // this): the channel drains as workers run, so the spin is bounded
  // by the batch backlog; exit early if every worker died.
  while (!injector_.try_push(chunk)) {
    if (alive_.load(std::memory_order_acquire) == 0) return;
    notify();
    std::this_thread::yield();
  }
}

std::uint64_t Scheduler::steals() const { return steals_counter_->value(); }

std::uint64_t Scheduler::requeued_tasks() const {
  return requeued_counter_->value();
}

}  // namespace por::serve
