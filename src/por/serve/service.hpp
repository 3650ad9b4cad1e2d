// por/serve/service.hpp
//
// RefineService — the multi-tenant refinement server core
// (DESIGN.md §11).  Turns the one-shot batch pipeline into a
// long-running service: clients register density-map models once,
// then submit refinement jobs (a shard of views + initial orientations
// against a named model); the service admits or rejects each job at
// the front door, queues admitted jobs, and executes them on the
// Scheduler's worker pool with many jobs in flight at once.
//
// Admission control is two-layered and O(1) per submit:
//   * per-tenant token buckets (rate + burst) — a noisy tenant is
//     rejected with kQuotaExhausted while the others keep flowing;
//   * a bounded job queue — when the backlog hits queue_capacity the
//     service sheds load with kQueueFull instead of growing an
//     unbounded queue and blowing its latency promise.  The bound is
//     on admission only: recover() re-admits every incomplete job.
//
// Job lifecycle: kQueued -> kRunning -> {kDone, kFailed, kCancelled,
// kTimedOut}.  A queued job cancels immediately; a running job is
// cancelled cooperatively (CancelToken, polled down inside
// sliding_window_search) and lands in exactly one terminal state.
// Per-job deadlines (request.deadline_ns, or the service-wide
// default_deadline_ns) surface as kTimedOut through the same token.
// Rejected submissions never get a job id.  drain() stops admission
// and waits for the backlog to empty; shutdown() drains and joins; the
// destructor is a shutdown().
//
// Crash-only serving (DESIGN.md §15): with ServiceOptions::journal_dir
// set, every submission is appended to a por::journal write-ahead
// journal and fsync'd BEFORE submit() returns — the ack the client
// holds us to — and every lifecycle transition follows it.  Per-view
// progress is checkpointed to <journal_dir>/job-<id>.porc (PR 5 PORC
// format); it stays for recovery, while the spare its rewrites keep
// (resilience::atomic_write_file) is dropped when the job ends, so a
// finished job holds one file.  After a crash, construct the service
// on the same journal_dir, register the models, then call recover():
// incomplete jobs are re-admitted (already-checkpointed views
// restored, the rest refined), terminal jobs are rematerialized with
// their results, and duplicate submissions are absorbed by idempotency
// key.  Per-view determinism makes a recovered job's orientations
// bitwise-identical to an uninterrupted run.
//
// Determinism: per-view refinement is deterministic and the Scheduler
// executes every view of a job exactly once, so a job's refined
// orientations are bitwise-identical to a serial single-tenant run of
// the same job, at any worker count and under any tenant mix.
//
// Observability (por::obs, the registry current on the constructing
// thread): serve.jobs.* counters, per-tenant serve.tenant.<name>.*
// counters, queue-depth / running gauges, and the log-bucket
// serve.job_latency_seconds histogram whose p50/p95/p99 land in every
// JSON export.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "por/core/cancel.hpp"
#include "por/core/refiner.hpp"
#include "por/journal/journal.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/serve/job_record.hpp"
#include "por/serve/scheduler.hpp"
#include "por/serve/token_bucket.hpp"

namespace por::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace por::obs

namespace por::serve {

struct TenantConfig {
  std::string name;
  double rate_per_sec = 0.0;  ///< sustained jobs/s; <= 0 means unlimited
  double burst = 16.0;        ///< instantaneous burst allowance
};

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut,  ///< the per-job deadline fired (structured, not kFailed)
};

enum class Admission : std::uint8_t {
  kAccepted,
  kQueueFull,       ///< bounded queue at capacity — shed load
  kQuotaExhausted,  ///< tenant token bucket empty
  kUnknownTenant,   ///< tenant not configured (closed tenancy only)
  kUnknownModel,    ///< model name never registered
  kDraining,        ///< service is draining or shut down
  kBadRequest,      ///< empty job or mismatched view/orientation sizes
};

[[nodiscard]] const char* to_string(JobState state);
[[nodiscard]] const char* to_string(Admission admission);

struct ServiceOptions {
  /// Scheduler worker threads (0 → hardware_concurrency).
  std::size_t workers = 0;
  /// Bounded admission queue: jobs admitted but not yet dispatched.
  /// Bounds new submits only; recover() re-admits every incomplete job.
  std::size_t queue_capacity = 64;
  /// Jobs running on the scheduler at once (0 → 2 x workers).  The cap
  /// keeps per-job latency bounded instead of thrashing every job at
  /// once.
  std::size_t max_running = 0;
  /// Configured tenants.  Empty → open tenancy: any tenant name is
  /// admitted with an unlimited quota.
  std::vector<TenantConfig> tenants;
  /// Deterministic scheduler-worker death injection
  /// (SchedulerOptions::fault_plan).
  vmpi::FaultPlan worker_fault_plan;
  /// Injectable clock (monotonic nanoseconds) for quota refill and
  /// latency measurement; tests drive it by hand.  Null → steady clock.
  std::function<std::uint64_t()> clock_ns;
  /// Write-ahead journal directory (DESIGN.md §15).  Empty → journaling
  /// and recovery disabled (the PR 6 in-memory behaviour).
  std::string journal_dir;
  /// Rotate journal segments at this size.
  std::size_t journal_max_segment_bytes = 4u << 20;
  /// Default per-job deadline as a DURATION in nanoseconds, applied
  /// when a request carries none.  0 → no deadline.
  std::uint64_t default_deadline_ns = 0;
  /// Per-view checkpoint records buffered between atomic rewrites of a
  /// job's PORC file (1 = checkpoint after every view).
  std::size_t checkpoint_flush_every = 8;
};

struct JobRequest {
  std::string tenant;
  std::string model;
  std::vector<em::Image<double>> views;
  std::vector<em::Orientation> initial;
  /// Optional per-view centers (empty → all (0, 0)).
  std::vector<std::pair<double, double>> centers;
  /// Client-supplied dedup key.  A resubmission carrying a key the
  /// service has already journal-acknowledged — including across a
  /// crash/recovery — returns the ORIGINAL job id (deduplicated=true)
  /// instead of admitting a second execution.  Empty → no dedup.
  std::string idempotency_key;
  /// Deadline as a DURATION in nanoseconds from submission (restarted
  /// from re-admission for a recovered job — wall time spent dead is
  /// not charged).  0 → ServiceOptions::default_deadline_ns.
  std::uint64_t deadline_ns = 0;
};

struct SubmitResult {
  std::uint64_t job = 0;  ///< valid only when accepted
  Admission admission = Admission::kAccepted;
  /// True when the idempotency key matched an existing job: `job` is
  /// that original job's id and nothing new was admitted.
  bool deduplicated = false;
  [[nodiscard]] bool accepted() const {
    return admission == Admission::kAccepted;
  }
};

struct JobStatus {
  std::uint64_t job = 0;
  JobState state = JobState::kQueued;
  std::string tenant;
  std::string model;
  std::string error;  ///< kFailed only
  /// submit → finish wall time; valid once the job reached a terminal
  /// state.
  double latency_seconds = 0.0;
  /// Refined per-view records, in view order; kDone only.
  std::vector<core::ViewResult> results;
};

class RefineService {
 public:
  explicit RefineService(ServiceOptions options);
  RefineService(const RefineService&) = delete;
  RefineService& operator=(const RefineService&) = delete;
  ~RefineService();  ///< shutdown()

  /// Build and cache the refiner for `name` (padded 3D DFT of `map`,
  /// serial — do it at startup, not on the request path).  Re-register
  /// to replace.  Thread-safe.
  void register_model(const std::string& name, const em::Volume<double>& map,
                      const core::RefinerConfig& config);

  /// Admission-controlled, non-blocking submit.  With journaling on,
  /// the submission record is fsync'd before this returns — an
  /// accepted result is durable against SIGKILL.  Throws
  /// resilience::Error{kTransient} if the journal write itself fails
  /// (the job was NOT admitted; retry).
  SubmitResult submit(JobRequest request);

  /// Crash recovery (journaling only; call once, after register_model):
  /// replays the journal, rematerializes terminal jobs (results from
  /// their checkpoints), re-admits every incomplete job — restored
  /// views are not refined again — and compacts the journal.  A job
  /// whose model is not registered fails with a structured error
  /// rather than blocking recovery.  Returns the number of re-admitted
  /// jobs.
  std::size_t recover();

  /// Snapshot of one job's lifecycle (results included once done).
  [[nodiscard]] JobStatus status(std::uint64_t job) const;

  /// Ids of every job the service knows, ascending — including jobs
  /// rematerialized from the journal by recover(), which is what
  /// recovery tooling enumerates after a restart.
  [[nodiscard]] std::vector<std::uint64_t> job_ids() const;

  /// Block until the job reaches a terminal state, then return it.
  JobStatus wait(std::uint64_t job);

  /// Cancel a job.  A queued job transitions to kCancelled
  /// immediately; a running job has its CancelToken fired and finishes
  /// in exactly one terminal state — kCancelled once a worker observes
  /// the token, or kDone if every view had already completed (the
  /// cancel arrived too late; the returned `true` means "request
  /// delivered", not "job will end cancelled").  False if the job is
  /// unknown or already terminal.
  bool cancel(std::uint64_t job);

  /// Stop admitting and wait until queued == running == 0.
  void drain();

  /// drain() + stop the dispatcher.  Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t workers() const { return scheduler_->workers(); }
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }

 private:
  struct Tenant {
    TokenBucket bucket;
    obs::Counter* accepted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected_quota = nullptr;
  };

  struct Job {
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    std::string tenant;
    std::string model;
    std::string error;
    std::string idempotency_key;
    std::uint64_t deadline_ns = 0;  ///< duration from submit_ns; 0 = none
    std::shared_ptr<const core::OrientationRefiner> refiner;
    std::vector<em::Image<double>> views;
    std::vector<em::Orientation> initial;
    std::vector<std::pair<double, double>> centers;
    std::vector<core::ViewResult> results;
    /// Cooperative cancel/deadline token; created at dispatch, shared
    /// with every batch task of the job.
    std::shared_ptr<core::CancelToken> token;
    /// restored[i] != 0: results[i] came from the recovery checkpoint
    /// and must not be refined (or checkpointed) again.
    std::vector<char> restored;
    /// Per-view PORC checkpoint log (journaling only).  checkpoint_mutex
    /// serializes worker-thread appends; never taken with mutex_ held.
    std::unique_ptr<resilience::CheckpointWriter> checkpoint;
    std::mutex checkpoint_mutex;
    std::size_t views_done = 0;  ///< guarded by checkpoint_mutex
    std::uint64_t submit_ns = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// One journal-replayed job, parked until recover() can look the
  /// model up.
  struct RecoveredJob {
    SubmittedJob request;
    JobState state = JobState::kQueued;  ///< kQueued = incomplete
    std::string error;
  };

  void dispatcher_loop();
  void dispatch(const std::shared_ptr<Job>& job);
  void finalize(const std::shared_ptr<Job>& job, Batch& batch);
  Tenant& tenant_entry_locked(const std::string& name);
  [[nodiscard]] JobStatus status_locked(const Job& job) const;
  [[nodiscard]] std::uint64_t now_ns() const { return clock_(); }
  void journal_append_locked(JobRecordType type, const std::string& payload,
                             bool durable);
  [[nodiscard]] std::string checkpoint_path(std::uint64_t job) const;
  void replay_journal_locked();

  ServiceOptions options_;
  std::function<std::uint64_t()> clock_;
  std::size_t max_running_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_dispatch_;  ///< dispatcher: backlog / slots
  std::condition_variable cv_job_;       ///< waiters: job state changes
  std::map<std::string, Tenant> tenants_;
  bool open_tenancy_ = false;
  std::map<std::string, std::shared_ptr<const core::OrientationRefiner>>
      models_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;
  /// Admitted, not yet dispatched job ids (cancelled ones included
  /// until the dispatcher skips them).
  std::deque<std::uint64_t> queue_;
  std::size_t running_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  bool stopped_ = false;

  std::unique_ptr<Scheduler> scheduler_;

  /// Write-ahead journal (null when options_.journal_dir is empty) and
  /// the replayed-but-not-yet-materialized jobs recover() consumes.
  std::unique_ptr<journal::Journal> journal_;
  std::map<std::uint64_t, RecoveredJob> recovery_plan_;
  bool recovered_ = false;
  /// idempotency key -> job id, spanning live AND terminal jobs (a key
  /// resubmitted after completion still dedups).
  std::map<std::string, std::uint64_t> idempotency_;

  obs::Counter* submitted_;
  obs::Counter* accepted_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* cancelled_;
  obs::Counter* timed_out_;
  obs::Counter* deduplicated_;
  obs::Counter* replayed_jobs_;
  obs::Counter* rejected_queue_;
  obs::Counter* rejected_quota_;
  obs::Counter* rejected_other_;
  obs::Gauge* queue_depth_;
  obs::Gauge* running_gauge_;
  obs::Histogram* latency_;

  std::thread dispatcher_;
};

}  // namespace por::serve
