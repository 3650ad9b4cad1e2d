// por::serve test suite: the token bucket, the Scheduler worker pool
// and its determinism / fault-recovery contracts, and the multi-tenant
// RefineService admission + lifecycle model.  The concurrency-heavy
// cases carry the `tsan` ctest label and are exercised under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "por/core/refiner.hpp"
#include "por/journal/journal.hpp"
#include "por/obs/registry.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/serve/job_record.hpp"
#include "por/serve/scheduler.hpp"
#include "por/serve/service.hpp"
#include "por/serve/token_bucket.hpp"
#include "test_helpers.hpp"

namespace fs = std::filesystem;

namespace {

using namespace por;
using namespace por::serve;
using por::test::make_views;
using por::test::small_phantom;

// ---- TokenBucket -----------------------------------------------------------

TEST(TokenBucket, EnforcesRateWithManualClock) {
  TokenBucket bucket(10.0, 2.0);  // 10 tokens/s, burst of 2
  std::uint64_t now = 1'000'000'000;
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));  // burst exhausted
  now += 100'000'000;                     // +100 ms -> +1 token
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));
  now += 10'000'000'000;  // refill far past burst: capped at 2
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));
}

TEST(TokenBucket, NonPositiveRateMeansUnlimited) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_acquire(42));
}

// ---- Scheduler -------------------------------------------------------------

TEST(Scheduler, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 10000;
  SchedulerOptions options;
  options.workers = 4;
  Scheduler scheduler(options);
  std::vector<std::atomic<std::uint32_t>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  scheduler.run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(Scheduler, ManyConcurrentBatchesAllComplete) {
  SchedulerOptions options;
  options.workers = 4;
  Scheduler scheduler(options);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::shared_ptr<Batch>> batches;
  for (int b = 0; b < 16; ++b) {
    batches.push_back(scheduler.submit(
        100, [&](std::size_t) { total.fetch_add(1); }));
  }
  for (auto& batch : batches) batch->wait();
  EXPECT_EQ(total.load(), 1600u);
}

TEST(Scheduler, PropagatesTaskExceptionAndStaysUsable) {
  SchedulerOptions options;
  options.workers = 2;
  Scheduler scheduler(options);
  EXPECT_THROW(scheduler.run(64,
                             [](std::size_t i) {
                               if (i == 13) {
                                 throw std::runtime_error("view 13 is cursed");
                               }
                             }),
               std::runtime_error);
  // The scheduler survives a failed batch.
  std::atomic<std::uint64_t> ran{0};
  scheduler.run(64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64u);
}

TEST(Scheduler, TasksRunOnWorkersWithOrdinalsInRange) {
  SchedulerOptions options;
  options.workers = 3;
  Scheduler scheduler(options);
  std::vector<std::atomic<std::uint64_t>> hits(scheduler.workers());
  std::atomic<std::uint64_t> off_worker{0};
  for (int round = 0; round < 4; ++round) {
    scheduler.run(500, [&](std::size_t) {
      const std::size_t worker = Scheduler::current_worker();
      if (worker < hits.size()) {
        hits[worker].fetch_add(1);
      } else {
        off_worker.fetch_add(1);
      }
    });
  }
  EXPECT_EQ(off_worker.load(), 0u);
  std::uint64_t total = 0;
  for (const auto& h : hits) total += h.load();
  EXPECT_EQ(total, 2000u);
  EXPECT_EQ(Scheduler::current_worker(), Scheduler::kNotAWorker);
}

TEST(Scheduler, IdleWorkersBlockInsteadOfSpinning) {
  // Regression guard for the strictly-blocking idle contract: workers
  // with nothing to run must sleep on the condvar, not poll for work
  // in a loop.  A busy-waiting scheduler would burn ~4 x 300 ms of CPU
  // here; blocked workers burn none.  The bound is generous enough for
  // TSan/Valgrind-style slowdowns.
  SchedulerOptions options;
  options.workers = 4;
  Scheduler scheduler(options);
  scheduler.run(4, [](std::size_t) {});  // wake everyone once
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::clock_t cpu_before = std::clock();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_seconds =
      static_cast<double>(std::clock() - cpu_before) / CLOCKS_PER_SEC;
  EXPECT_LT(cpu_seconds, 0.15)
      << "idle scheduler burned CPU: workers are spinning, not blocking";
}

// The determinism criterion: refinement results from the pooled
// scheduler are bitwise-identical to the serial loop at any worker
// count.
void expect_bitwise_equal(const core::ViewResult& a, const core::ViewResult& b,
                          std::size_t index) {
  EXPECT_EQ(a.orientation.theta, b.orientation.theta) << "view " << index;
  EXPECT_EQ(a.orientation.phi, b.orientation.phi) << "view " << index;
  EXPECT_EQ(a.orientation.omega, b.orientation.omega) << "view " << index;
  EXPECT_EQ(a.center_x, b.center_x) << "view " << index;
  EXPECT_EQ(a.center_y, b.center_y) << "view " << index;
  EXPECT_EQ(a.final_distance, b.final_distance) << "view " << index;
  EXPECT_EQ(a.matchings, b.matchings) << "view " << index;
  EXPECT_EQ(a.center_evals, b.center_evals) << "view " << index;
  EXPECT_EQ(a.window_slides, b.window_slides) << "view " << index;
  EXPECT_EQ(a.quarantined, b.quarantined) << "view " << index;
}

core::RefinerConfig serve_test_config() {
  core::RefinerConfig config;
  config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                     core::SearchLevel{0.5, 3, 0.5, 3}};
  config.match.r_map = 8.0;
  return config;
}

TEST(Scheduler, RefinementBitwiseIdenticalToSerialAtAnyWorkerCount) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 8, /*seed=*/17);
  core::RefinerConfig config = serve_test_config();
  const core::OrientationRefiner refiner(model.rasterize(l), config);

  // Serial reference (refine_workers defaults to 1).
  const std::vector<core::ViewResult> serial =
      refiner.refine(set.views, set.orientations);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    core::RefinerConfig parallel_config = serve_test_config();
    parallel_config.refine_workers = static_cast<int>(workers);
    const core::OrientationRefiner parallel_refiner(model.rasterize(l),
                                                    parallel_config);
    const std::vector<core::ViewResult> parallel =
        parallel_refiner.refine(set.views, set.orientations);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_bitwise_equal(parallel[i], serial[i], i);
    }
  }
}

// ---- Scheduler fault injection (por::resilience) ---------------------------

TEST(Scheduler, WorkerDeathRequeuesInFlightWork) {
  constexpr std::size_t kTasks = 4000;
  SchedulerOptions options;
  options.workers = 4;
  // Workers 0 and 1 die on their first task attempt; their chunks are
  // requeued and the batch completes on the survivors.
  options.fault_plan.kill_rank_at_step(0, 0);
  options.fault_plan.kill_rank_at_step(1, 0);
  Scheduler scheduler(options);
  // The kills land on the victims' own first task attempt, and on a
  // one-core host the OS may let the other workers drain a whole batch
  // before workers 0/1 ever run.  Feed batches (each checked for
  // exactly-once execution) until both deaths have happened, with a
  // cap so a broken fault hook fails instead of spinning forever.
  std::vector<std::atomic<std::uint32_t>> hits(kTasks);
  for (std::size_t round = 0;
       scheduler.alive_workers() > 2u && round < 50; ++round) {
    for (auto& h : hits) h.store(0);
    scheduler.run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    }
  }
  EXPECT_EQ(scheduler.alive_workers(), 2u);
  EXPECT_GE(scheduler.requeued_tasks(), 1u);

  // The crippled scheduler still serves new batches.
  std::atomic<std::uint64_t> ran{0};
  scheduler.run(100, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100u);
}

TEST(Scheduler, AllWorkersDeadFailsTheBatch) {
  SchedulerOptions options;
  options.workers = 2;
  options.fault_plan.kill_rank_at_step(0, 0);
  options.fault_plan.kill_rank_at_step(1, 0);
  Scheduler scheduler(options);
  EXPECT_THROW(scheduler.run(100, [](std::size_t) {}), std::runtime_error);
  EXPECT_EQ(scheduler.alive_workers(), 0u);
  // With nobody to run anything, later submissions fail immediately
  // instead of hanging.
  auto batch = scheduler.submit(10, [](std::size_t) {});
  EXPECT_THROW(batch->wait(), std::runtime_error);
}

TEST(Scheduler, DeterminismSurvivesWorkerDeath) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 6, /*seed=*/23);
  const core::OrientationRefiner refiner(model.rasterize(l),
                                         serve_test_config());
  const std::vector<core::ViewResult> serial =
      refiner.refine(set.views, set.orientations);

  SchedulerOptions options;
  options.workers = 3;
  options.fault_plan.kill_rank_at_step(1, 1);
  Scheduler scheduler(options);
  std::vector<core::ViewResult> results(set.views.size());
  scheduler.run(set.views.size(), [&](std::size_t i) {
    results[i] = refiner.refine_view(set.views[i], set.orientations[i]);
  });
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bitwise_equal(results[i], serial[i], i);
  }
}

// Two contracts at once: submit() may be called from task bodies and
// completion callbacks, and abandoned batches still complete.  Every
// handle is dropped on the spot, so only the destructor's wait keeps
// the last generation of work from being cut off.
TEST(Scheduler, SubmitFromTaskBodyAndCallbackCompletes) {
  constexpr std::size_t kOuter = 8, kInner = 16, kTail = 32;
  std::vector<std::atomic<std::uint32_t>> outer(kOuter);
  std::vector<std::atomic<std::uint32_t>> inner(kOuter * kInner);
  std::vector<std::atomic<std::uint32_t>> tail(kTail);
  {
    SchedulerOptions options;
    options.workers = 3;
    Scheduler scheduler(options);
    scheduler.submit(
        kOuter,
        [&](std::size_t i) {
          outer[i].fetch_add(1);
          scheduler.submit(kInner, [&, i](std::size_t j) {
            inner[i * kInner + j].fetch_add(1);
          });
        },
        [&](Batch&) {
          scheduler.submit(kTail, [&](std::size_t k) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            tail[k].fetch_add(1);
          });
        });
  }
  for (std::size_t i = 0; i < kOuter; ++i) {
    ASSERT_EQ(outer[i].load(), 1u) << "outer " << i;
  }
  for (std::size_t i = 0; i < inner.size(); ++i) {
    ASSERT_EQ(inner[i].load(), 1u) << "inner " << i;
  }
  for (std::size_t k = 0; k < kTail; ++k) {
    ASSERT_EQ(tail[k].load(), 1u) << "tail " << k;
  }
}

// ---- RefineService ---------------------------------------------------------

JobRequest make_job(const std::string& tenant, const std::string& model_name,
                    const test::ViewSet& set, std::size_t begin,
                    std::size_t count) {
  JobRequest request;
  request.tenant = tenant;
  request.model = model_name;
  for (std::size_t i = begin; i < begin + count; ++i) {
    request.views.push_back(set.views[i]);
    request.initial.push_back(set.orientations[i]);
  }
  return request;
}

TEST(RefineService, MultiTenantJobsMatchSerialBitwise) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 12, /*seed=*/29);
  const core::RefinerConfig config = serve_test_config();
  const core::OrientationRefiner reference(model.rasterize(l), config);

  ServiceOptions options;
  options.workers = 4;
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), config);

  const char* tenants[] = {"alice", "bob", "carol"};
  std::vector<std::uint64_t> ids;
  for (std::size_t j = 0; j < 6; ++j) {
    const SubmitResult submitted = service.submit(
        make_job(tenants[j % 3], "phantom", set, 2 * j, 2));
    ASSERT_TRUE(submitted.accepted())
        << to_string(submitted.admission) << " for job " << j;
    ids.push_back(submitted.job);
  }
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const JobStatus status = service.wait(ids[j]);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    ASSERT_EQ(status.results.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t v = 2 * j + k;
      const core::ViewResult serial =
          reference.refine_view(set.views[v], set.orientations[v]);
      expect_bitwise_equal(status.results[k], serial, v);
    }
  }
  service.shutdown();
}

TEST(RefineService, EnforcesTenantQuotas) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 2, /*seed=*/31);

  // Atomic: the dispatcher thread reads the clock while this thread
  // advances it.
  std::atomic<std::uint64_t> fake_now{1'000'000'000};
  ServiceOptions options;
  options.workers = 2;
  options.clock_ns = [&fake_now] { return fake_now.load(); };
  options.tenants = {TenantConfig{"metered", /*rate=*/10.0, /*burst=*/2.0},
                     TenantConfig{"unlimited", 0.0, 0.0}};
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());

  EXPECT_TRUE(service.submit(make_job("metered", "phantom", set, 0, 1))
                  .accepted());
  EXPECT_TRUE(service.submit(make_job("metered", "phantom", set, 1, 1))
                  .accepted());
  // Burst spent, clock frozen: the noisy tenant is shed...
  EXPECT_EQ(service.submit(make_job("metered", "phantom", set, 0, 1)).admission,
            Admission::kQuotaExhausted);
  // ...while other tenants keep flowing.
  EXPECT_TRUE(service.submit(make_job("unlimited", "phantom", set, 0, 1))
                  .accepted());
  // +100 ms refills one token.
  fake_now += 100'000'000;
  EXPECT_TRUE(service.submit(make_job("metered", "phantom", set, 0, 1))
                  .accepted());
  EXPECT_EQ(service.submit(make_job("metered", "phantom", set, 1, 1)).admission,
            Admission::kQuotaExhausted);
  // Closed tenancy: unconfigured tenants are refused outright.
  EXPECT_EQ(service.submit(make_job("mallory", "phantom", set, 0, 1)).admission,
            Admission::kUnknownTenant);
  service.drain();
}

TEST(RefineService, BoundedQueueShedsLoad) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 4, /*seed=*/37);

  // Hold the single worker until the burst is in: every job carries a
  // deadline, so the worker reads the clock before its first view, and
  // on a scheduler worker that read blocks until `burst_in` is set.
  std::promise<void> burst_in;
  const std::shared_future<void> released = burst_in.get_future().share();
  ServiceOptions options;
  options.workers = 1;
  options.max_running = 1;
  options.queue_capacity = 2;
  options.default_deadline_ns = 3'600'000'000'000ULL;
  options.clock_ns = [released] {
    if (Scheduler::current_worker() != Scheduler::kNotAWorker) {
      released.wait();
    }
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());

  // Burst past running-cap + queue-capacity while no job can finish:
  // at most 1 running + 2 queued are admitted, the rest are shed.
  int accepted = 0, shed = 0;
  std::vector<std::uint64_t> ids;
  for (int j = 0; j < 8; ++j) {
    const SubmitResult r =
        service.submit(make_job("t", "phantom", set, (j % 2) * 2, 2));
    if (r.accepted()) {
      ++accepted;
      ids.push_back(r.job);
    } else {
      EXPECT_EQ(r.admission, Admission::kQueueFull);
      ++shed;
    }
  }
  burst_in.set_value();
  EXPECT_GE(shed, 5);
  EXPECT_GE(accepted, 1);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(service.wait(id).state, JobState::kDone);
  }
  service.shutdown();
}

TEST(RefineService, LifecycleCancelAndDrain) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 2, /*seed=*/41);

  ServiceOptions options;
  options.workers = 1;
  options.max_running = 1;
  options.queue_capacity = 8;
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());

  // Malformed requests never enter the queue.
  EXPECT_EQ(service.submit(JobRequest{"t", "phantom", {}, {}, {}, {}, 0}).admission,
            Admission::kBadRequest);
  EXPECT_EQ(service.submit(make_job("t", "no-such-model", set, 0, 1)).admission,
            Admission::kUnknownModel);

  // Keep the single runner busy so the third job normally sits queued
  // behind two others when we cancel it.
  const SubmitResult first = service.submit(make_job("t", "phantom", set, 0, 2));
  ASSERT_TRUE(first.accepted());
  const SubmitResult second =
      service.submit(make_job("t", "phantom", set, 0, 2));
  const SubmitResult third = service.submit(make_job("t", "phantom", set, 0, 1));
  ASSERT_TRUE(second.accepted());
  ASSERT_TRUE(third.accepted());

  // Cancellation inherently races the dispatcher (on a loaded one-core
  // host this thread can be starved past the whole backlog), so assert
  // the atomicity contract rather than a fixed winner: cancel()
  // returning false means the job was already terminal and must have
  // completed normally; returning true means the request was delivered
  // — a queued job pins to kCancelled, a running one finishes in
  // exactly one of {kCancelled, kDone} (kDone iff every view had
  // already completed when the token fired).
  const bool cancelled = service.cancel(third.job);
  const JobStatus third_status = service.wait(third.job);
  if (cancelled) {
    EXPECT_TRUE(third_status.state == JobState::kCancelled ||
                third_status.state == JobState::kDone)
        << to_string(third_status.state);
  } else {
    EXPECT_EQ(third_status.state, JobState::kDone);
  }
  // Terminal now, whichever way the race went: cancel must refuse.
  EXPECT_FALSE(service.cancel(third.job));

  EXPECT_EQ(service.wait(first.job).state, JobState::kDone);
  EXPECT_EQ(service.wait(second.job).state, JobState::kDone);

  // A terminal job can never be cancelled — this leg is race-free.
  EXPECT_FALSE(service.cancel(first.job));

  service.drain();
  EXPECT_EQ(service.submit(make_job("t", "phantom", set, 0, 1)).admission,
            Admission::kDraining);
  EXPECT_STREQ(to_string(JobState::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(Admission::kDraining), "draining");
  service.shutdown();  // idempotent with the drain above
}

TEST(RefineService, WorkerDeathDoesNotFailJobs) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 6, /*seed=*/43);
  const core::RefinerConfig config = serve_test_config();
  const core::OrientationRefiner reference(model.rasterize(l), config);

  ServiceOptions options;
  options.workers = 3;
  options.worker_fault_plan.kill_rank_at_step(0, 1);
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), config);

  // The kill fires on worker 0's second task attempt, and on a one-core
  // host the OS decides when worker 0 gets to attempt anything — a
  // single job can be drained entirely by its siblings.  Keep feeding
  // jobs until the death lands (every completed job stays a valid
  // bitwise-determinism sample), with a cap so a broken fault hook
  // fails the test instead of hanging it.
  std::vector<std::uint64_t> ids;
  while (service.scheduler().alive_workers() == 3u && ids.size() < 60) {
    const SubmitResult job =
        service.submit(make_job("t", "phantom", set, 0, 6));
    ASSERT_TRUE(job.accepted());
    ids.push_back(job.job);
    const JobStatus status = service.wait(job.job);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
  }
  EXPECT_EQ(service.scheduler().alive_workers(), 2u);
  for (const std::uint64_t id : ids) {
    const JobStatus status = service.status(id);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    for (std::size_t i = 0; i < 6; ++i) {
      const core::ViewResult serial =
          reference.refine_view(set.views[i], set.orientations[i]);
      expect_bitwise_equal(status.results[i], serial, i);
    }
  }
  service.shutdown();
}

// ---- journaled service: recovery, idempotency, deadlines -------------------

fs::path serve_test_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("por_serve_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(RefineServiceJournal, TerminalJobsSurviveRestartBitwise) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 3, /*seed=*/61);
  const fs::path dir = serve_test_dir("restart_done");

  ServiceOptions options;
  options.workers = 2;
  options.journal_dir = dir.string();
  options.checkpoint_flush_every = 1;

  std::vector<core::ViewResult> first_results;
  std::uint64_t id = 0;
  {
    RefineService service(options);
    service.register_model("phantom", model.rasterize(l),
                           serve_test_config());
    EXPECT_EQ(service.recover(), 0u);  // empty journal
    JobRequest request = make_job("t", "phantom", set, 0, 3);
    request.idempotency_key = "job-key-1";
    const SubmitResult submitted = service.submit(std::move(request));
    ASSERT_TRUE(submitted.accepted());
    EXPECT_FALSE(submitted.deduplicated);
    id = submitted.job;
    const JobStatus status = service.wait(id);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    first_results = status.results;
    service.shutdown();
  }

  // A fresh process on the same journal dir sees the finished job —
  // same id, same state, bitwise-identical orientations — and dedups
  // a retried submission onto it.
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());
  EXPECT_EQ(service.recover(), 0u);  // nothing incomplete
  const JobStatus recovered = service.status(id);
  ASSERT_EQ(recovered.state, JobState::kDone) << recovered.error;
  ASSERT_EQ(recovered.results.size(), first_results.size());
  for (std::size_t i = 0; i < first_results.size(); ++i) {
    expect_bitwise_equal(recovered.results[i], first_results[i], i);
  }
  JobRequest retry = make_job("t", "phantom", set, 0, 3);
  retry.idempotency_key = "job-key-1";
  const SubmitResult deduped = service.submit(std::move(retry));
  EXPECT_TRUE(deduped.accepted());
  EXPECT_TRUE(deduped.deduplicated);
  EXPECT_EQ(deduped.job, id);
  service.shutdown();
}

TEST(RefineServiceJournal, FinishedJobHoldsOnlyItsCheckpoint) {
  // Three views flushed one at a time rewrite the checkpoint three
  // times, so it has a spare while the job runs; once the job ends the
  // spare goes and the checkpoint alone stays, for recovery.
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 3, /*seed=*/67);
  const fs::path dir = serve_test_dir("finished_footprint");

  ServiceOptions options;
  options.workers = 2;
  options.journal_dir = dir.string();
  options.checkpoint_flush_every = 1;
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());
  std::vector<std::uint64_t> ids;
  for (int k = 0; k < 2; ++k) {
    const SubmitResult submitted =
        service.submit(make_job("t", "phantom", set, 0, 3));
    ASSERT_TRUE(submitted.accepted());
    ids.push_back(submitted.job);
  }
  for (const std::uint64_t id : ids) {
    ASSERT_EQ(service.wait(id).state, JobState::kDone);
  }
  service.shutdown();  // joins the workers, so every finalize has run

  std::vector<std::string> job_files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("job-", 0) == 0) job_files.push_back(name);
  }
  std::sort(job_files.begin(), job_files.end());
  std::vector<std::string> expected;
  for (const std::uint64_t id : ids) {
    expected.push_back("job-" + std::to_string(id) + ".porc");
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(job_files, expected);
}

TEST(RefineServiceJournal, IncompleteJobIsReadmittedAndRestoredViewsSkipped) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 2, /*seed=*/67);
  const fs::path dir = serve_test_dir("readmit");
  const core::OrientationRefiner reference(model.rasterize(l),
                                           serve_test_config());
  const core::ViewResult ref0 =
      reference.refine_view(set.views[0], set.orientations[0]);
  const core::ViewResult ref1 =
      reference.refine_view(set.views[1], set.orientations[1]);

  // Forge the journal a crashed process would leave behind: a durable
  // submission record with no terminal, plus a checkpoint holding view
  // 0.  The checkpoint's record is deliberately POISONED (theta + 1)
  // so the test can prove recovery restored it verbatim instead of
  // quietly re-refining it.
  const std::uint64_t id = 1;
  {
    journal::Journal journal(dir.string());
    SubmittedJob submitted;
    submitted.job = id;
    submitted.tenant = "t";
    submitted.model = "phantom";
    submitted.idempotency_key = "crashed-key";
    submitted.views = {set.views[0], set.views[1]};
    submitted.initial = {set.orientations[0], set.orientations[1]};
    journal.append(static_cast<std::uint32_t>(JobRecordType::kSubmitted),
                   encode_submitted(submitted));
    LifecycleEvent running;
    running.job = id;
    journal.append(static_cast<std::uint32_t>(JobRecordType::kRunning),
                   encode_lifecycle(running), /*durable=*/false);
  }
  {
    resilience::CheckpointWriter checkpoint(
        (dir / ("job-" + std::to_string(id) + ".porc")).string(), 1);
    resilience::CheckpointRecord record;
    record.view_index = 0;
    record.theta = ref0.orientation.theta + 1.0;  // the poison marker
    record.phi = ref0.orientation.phi;
    record.omega = ref0.orientation.omega;
    record.center_x = ref0.center_x;
    record.center_y = ref0.center_y;
    record.final_distance = ref0.final_distance;
    record.matchings = ref0.matchings;
    checkpoint.append(record);
  }

  ServiceOptions options;
  options.workers = 2;
  options.journal_dir = dir.string();
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());
  EXPECT_EQ(service.recover(), 1u);

  const JobStatus status = service.wait(id);
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  ASSERT_EQ(status.results.size(), 2u);
  // View 0 came from the checkpoint, poison intact (not re-refined)...
  EXPECT_EQ(status.results[0].orientation.theta,
            ref0.orientation.theta + 1.0);
  // ...and view 1 was actually refined, bitwise-identical to an
  // uninterrupted run.
  expect_bitwise_equal(status.results[1], ref1, 1);

  // The recovered job's idempotency key dedups too.
  JobRequest retry = make_job("t", "phantom", set, 0, 2);
  retry.idempotency_key = "crashed-key";
  const SubmitResult deduped = service.submit(std::move(retry));
  EXPECT_TRUE(deduped.deduplicated);
  EXPECT_EQ(deduped.job, id);
  service.shutdown();
}

// A crash can leave more incomplete jobs than queue_capacity: running
// jobs are incomplete too.  Every one was acknowledged durably, so
// recovery must re-admit all of them, not fail the overflow.
TEST(RefineServiceJournal, RecoveryReadmitsEveryIncompleteJob) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 3, /*seed=*/73);
  const fs::path dir = serve_test_dir("readmit_all");
  {
    journal::Journal journal(dir.string());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      SubmittedJob submitted;
      submitted.job = id;
      submitted.tenant = "t";
      submitted.model = "phantom";
      submitted.views = {set.views[id - 1]};
      submitted.initial = {set.orientations[id - 1]};
      journal.append(static_cast<std::uint32_t>(JobRecordType::kSubmitted),
                     encode_submitted(submitted));
    }
  }

  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 2;
  options.journal_dir = dir.string();
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());
  EXPECT_EQ(service.recover(), 3u);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const JobStatus status = service.wait(id);
    EXPECT_EQ(status.state, JobState::kDone) << "job " << id << ": "
                                             << status.error;
  }
  service.shutdown();
}

TEST(RefineServiceJournal, UnknownModelAtRecoveryFailsStructured) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 1, /*seed=*/71);
  const fs::path dir = serve_test_dir("unknown_model");
  {
    journal::Journal journal(dir.string());
    SubmittedJob submitted;
    submitted.job = 1;
    submitted.tenant = "t";
    submitted.model = "never-registered";
    submitted.views = {set.views[0]};
    submitted.initial = {set.orientations[0]};
    journal.append(static_cast<std::uint32_t>(JobRecordType::kSubmitted),
                   encode_submitted(submitted));
  }
  ServiceOptions options;
  options.workers = 1;
  options.journal_dir = dir.string();
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());
  EXPECT_EQ(service.recover(), 0u);
  const JobStatus status = service.status(1);
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("never-registered"), std::string::npos);
  service.shutdown();
}

TEST(RefineService, DeadlineSurfacesTimedOut) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 2, /*seed=*/73);

  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);

  // A clock that leaps 1 ms per reading: by the time the dispatcher
  // (or the first in-refinement poll) looks, a 1 ns deadline is long
  // gone — whichever side of the dequeue the expiry lands on, the job
  // must surface kTimedOut.
  auto fake_now = std::make_shared<std::atomic<std::uint64_t>>(1'000'000);
  ServiceOptions options;
  options.workers = 1;
  options.clock_ns = [fake_now] { return fake_now->fetch_add(1'000'000); };
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());

  JobRequest request = make_job("t", "phantom", set, 0, 2);
  request.deadline_ns = 1;
  const SubmitResult submitted = service.submit(std::move(request));
  ASSERT_TRUE(submitted.accepted());
  const JobStatus status = service.wait(submitted.job);
  EXPECT_EQ(status.state, JobState::kTimedOut) << status.error;
  EXPECT_EQ(registry.snapshot().counters.at("serve.jobs.timed_out"), 1u);

  // A generous deadline does not fire.
  JobRequest relaxed = make_job("t", "phantom", set, 0, 2);
  relaxed.deadline_ns = std::uint64_t{1} << 62;
  const SubmitResult ok = service.submit(std::move(relaxed));
  ASSERT_TRUE(ok.accepted());
  EXPECT_EQ(service.wait(ok.job).state, JobState::kDone);
  service.shutdown();
}

TEST(RefineService, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 1, /*seed=*/79);
  auto fake_now = std::make_shared<std::atomic<std::uint64_t>>(1'000'000);
  ServiceOptions options;
  options.workers = 1;
  options.default_deadline_ns = 1;
  options.clock_ns = [fake_now] { return fake_now->fetch_add(1'000'000); };
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());
  const SubmitResult submitted =
      service.submit(make_job("t", "phantom", set, 0, 1));
  ASSERT_TRUE(submitted.accepted());
  EXPECT_EQ(service.wait(submitted.job).state, JobState::kTimedOut);
  service.shutdown();
}

// Satellite of DESIGN.md §15: the cancel-vs-dispatcher race.  A cancel
// issued from another thread while the dispatcher is between dequeue
// and the kRunning publication must land the job in EXACTLY one
// terminal state, every time, under as many interleavings as a stress
// loop (run under TSan in CI) can provoke.
TEST(RefineService, CancelRaceAlwaysExactlyOneTerminalState) {
  const std::size_t l = 20;
  const em::BlobModel model = small_phantom(l, 12);
  const auto set = make_views(model, l, 1, /*seed=*/83);

  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  RefineService service(options);
  service.register_model("phantom", model.rasterize(l), serve_test_config());

  constexpr int kRounds = 120;
  int cancelled_seen = 0;
  int done_seen = 0;
  for (int round = 0; round < kRounds; ++round) {
    // A cancelled job occupies its backlog slot until the dispatcher
    // pops the stale id, so rapid submit/cancel rounds can transiently
    // see kQueueFull — retry; anything else is a real failure.
    SubmitResult submitted;
    for (int attempt = 0;; ++attempt) {
      submitted = service.submit(make_job("t", "phantom", set, 0, 1));
      if (submitted.accepted()) break;
      ASSERT_EQ(submitted.admission, Admission::kQueueFull);
      ASSERT_LT(attempt, 1000) << "backlog never drained";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Race the cancel against the dispatcher from a second thread.
    std::thread canceller([&service, id = submitted.job] {
      (void)service.cancel(id);
    });
    const JobStatus status = service.wait(submitted.job);
    canceller.join();
    ASSERT_TRUE(status.state == JobState::kCancelled ||
                status.state == JobState::kDone)
        << to_string(status.state) << ": " << status.error;
    (status.state == JobState::kCancelled ? cancelled_seen : done_seen)++;
    // The state is terminal and stable: a second read agrees, and a
    // late cancel is refused.
    EXPECT_EQ(service.status(submitted.job).state, status.state);
    EXPECT_FALSE(service.cancel(submitted.job));
  }
  // Exactly one terminal per round — the counters must account for
  // every job once.
  const auto snapshot = registry.snapshot();
  const std::uint64_t terminals =
      snapshot.counters.at("serve.jobs.completed") +
      snapshot.counters.at("serve.jobs.cancelled");
  EXPECT_EQ(terminals, static_cast<std::uint64_t>(kRounds));
  service.shutdown();
}

}  // namespace
