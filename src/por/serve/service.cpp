#include "por/serve/service.hpp"

#include <algorithm>
#include <stdexcept>

#include "por/obs/registry.hpp"
#include "por/obs/span.hpp"
#include "por/resilience/atomic_file.hpp"
#include "por/resilience/error.hpp"
#include "por/util/contracts.hpp"
#include "por/util/log.hpp"

namespace por::serve {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kTimedOut:
      return "timed_out";
  }
  return "?";
}

const char* to_string(Admission admission) {
  switch (admission) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kQueueFull:
      return "queue_full";
    case Admission::kQuotaExhausted:
      return "quota_exhausted";
    case Admission::kUnknownTenant:
      return "unknown_tenant";
    case Admission::kUnknownModel:
      return "unknown_model";
    case Admission::kDraining:
      return "draining";
    case Admission::kBadRequest:
      return "bad_request";
  }
  return "?";
}

RefineService::RefineService(ServiceOptions options)
    : options_(std::move(options)) {
  clock_ = options_.clock_ns ? options_.clock_ns
                             : [] { return obs::now_ns(); };

  obs::MetricsRegistry& registry = obs::current_registry();
  submitted_ = &registry.counter("serve.jobs.submitted");
  accepted_ = &registry.counter("serve.jobs.accepted");
  completed_ = &registry.counter("serve.jobs.completed");
  failed_ = &registry.counter("serve.jobs.failed");
  cancelled_ = &registry.counter("serve.jobs.cancelled");
  timed_out_ = &registry.counter("serve.jobs.timed_out");
  deduplicated_ = &registry.counter("serve.jobs.deduplicated");
  replayed_jobs_ = &registry.counter("recovery.replayed_jobs");
  rejected_queue_ = &registry.counter("serve.jobs.rejected.queue_full");
  rejected_quota_ = &registry.counter("serve.jobs.rejected.quota");
  rejected_other_ = &registry.counter("serve.jobs.rejected.other");
  queue_depth_ = &registry.gauge("serve.queue_depth");
  running_gauge_ = &registry.gauge("serve.jobs_running");
  // Log buckets 100 us .. ~1000 s, 5 per decade: tight enough for a
  // meaningful p99 on sub-millisecond jobs, wide enough for full-size
  // refinements.
  latency_ = &registry.log_histogram("serve.job_latency_seconds", 1e-4, 1e3, 5);

  POR_EXPECT(options_.queue_capacity > 0, "serve: queue_capacity must be > 0");

  if (!options_.journal_dir.empty()) {
    journal::JournalOptions journal_options;
    journal_options.max_segment_bytes = options_.journal_max_segment_bytes;
    journal_ = std::make_unique<journal::Journal>(options_.journal_dir,
                                                  journal_options);
    // Parse the replay NOW (not in recover()): next_job_id_ and the
    // idempotency index must be correct before the first submit, even
    // if the caller never recovers.
    replay_journal_locked();
  }

  open_tenancy_ = options_.tenants.empty();
  for (const TenantConfig& tenant : options_.tenants) {
    tenant_entry_locked(tenant.name);  // pre-register configured tenants
  }

  SchedulerOptions sched;
  sched.workers = options_.workers;
  sched.fault_plan = options_.worker_fault_plan;
  scheduler_ = std::make_unique<Scheduler>(sched);

  max_running_ = options_.max_running != 0 ? options_.max_running
                                           : 2 * scheduler_->workers();

  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

RefineService::~RefineService() { shutdown(); }

RefineService::Tenant& RefineService::tenant_entry_locked(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TokenBucket bucket(0.0, 0.0);  // unlimited (open tenancy)
    for (const TenantConfig& config : options_.tenants) {
      if (config.name == name) {
        bucket = TokenBucket(config.rate_per_sec, config.burst);
        break;
      }
    }
    obs::MetricsRegistry& registry = obs::current_registry();
    Tenant entry{std::move(bucket),
                 &registry.counter("serve.tenant." + name + ".accepted"),
                 &registry.counter("serve.tenant." + name + ".completed"),
                 &registry.counter("serve.tenant." + name + ".rejected_quota")};
    it = tenants_.emplace(name, std::move(entry)).first;
  }
  return it->second;
}

void RefineService::register_model(const std::string& name,
                                   const em::Volume<double>& map,
                                   const core::RefinerConfig& config) {
  // Build outside the lock: the padded 3D DFT is the expensive part and
  // must not stall the admission path.
  auto refiner = std::make_shared<const core::OrientationRefiner>(map, config);
  std::lock_guard<std::mutex> lock(mutex_);
  models_[name] = std::move(refiner);
}

void RefineService::journal_append_locked(JobRecordType type,
                                          const std::string& payload,
                                          bool durable) {
  if (!journal_) return;
  if (durable) {
    // Durable appends back an acknowledgement — the failure must reach
    // the caller (submit() refuses the job).
    journal_->append(static_cast<std::uint32_t>(type), payload, durable);
    return;
  }
  // Lifecycle records are best-effort: losing one costs a re-execution
  // of idempotent work after a crash, while throwing here would kill
  // the dispatcher thread.
  try {
    journal_->append(static_cast<std::uint32_t>(type), payload, durable);
  } catch (const std::exception& e) {
    util::log_warn("serve: journal append (", to_string(type),
                   ") failed: ", e.what());
  }
}

std::string RefineService::checkpoint_path(std::uint64_t job) const {
  return options_.journal_dir + "/job-" + std::to_string(job) + ".porc";
}

void RefineService::replay_journal_locked() {
  // Fold the journal's record stream into one state per job: the
  // submission payload plus the LAST terminal transition (if any).
  // Records the codec rejects are corruption — the journal CRC proved
  // the bytes are exactly what a past process wrote, so a malformed
  // payload is a logic error worth failing loudly over, not skipping.
  for (const journal::Record& record : journal_->replayed().records) {
    const auto type = static_cast<JobRecordType>(record.type);
    switch (type) {
      case JobRecordType::kSubmitted: {
        SubmittedJob submitted = decode_submitted(record.payload);
        const std::uint64_t id = submitted.job;
        recovery_plan_[id].request = std::move(submitted);
        next_job_id_ = std::max(next_job_id_, id + 1);
        break;
      }
      case JobRecordType::kRunning:
      case JobRecordType::kViewBatchDone:
        // Progress markers; per-view progress is recovered from the
        // job's checkpoint file, not the journal.
        break;
      case JobRecordType::kDone:
      case JobRecordType::kFailed:
      case JobRecordType::kCancelled:
      case JobRecordType::kTimedOut: {
        const LifecycleEvent event = decode_lifecycle(record.payload);
        auto it = recovery_plan_.find(event.job);
        if (it == recovery_plan_.end()) {
          // Terminal for a job whose submission was compacted away or
          // lost to a non-durable append: nothing to rematerialize.
          break;
        }
        it->second.state = type == JobRecordType::kDone ? JobState::kDone
                           : type == JobRecordType::kFailed
                               ? JobState::kFailed
                           : type == JobRecordType::kCancelled
                               ? JobState::kCancelled
                               : JobState::kTimedOut;
        it->second.error = event.error;
        break;
      }
    }
    // Idempotency keys must dedup from the first post-restart submit
    // on, before recover() materializes the jobs.
    // (kSubmitted only; the key lives in the submission payload.)
  }
  for (const auto& [id, recovered] : recovery_plan_) {
    if (!recovered.request.idempotency_key.empty()) {
      idempotency_[recovered.request.idempotency_key] = id;
    }
  }
  journal_->discard_replayed();
}

std::size_t RefineService::recover() {
  std::size_t readmitted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    POR_EXPECT(journal_ != nullptr, "serve: recover() without a journal_dir");
    if (recovered_) return 0;
    recovered_ = true;

    for (auto& [id, recovered] : recovery_plan_) {
      SubmittedJob& request = recovered.request;
      auto job = std::make_shared<Job>();
      job->id = id;
      job->tenant = request.tenant;
      job->model = request.model;
      job->idempotency_key = request.idempotency_key;
      job->deadline_ns = request.deadline_ns;
      job->error = recovered.error;
      job->submit_ns = now_ns();

      if (recovered.state != JobState::kQueued) {
        // Terminal already: rematerialize so status()/wait()/dedup keep
        // answering for it.  Results of a kDone job live in its
        // checkpoint — the kDone record is only journaled after the
        // final checkpoint flush.
        job->state = recovered.state;
        job->end_ns = job->submit_ns;
        if (recovered.state == JobState::kDone) {
          const std::vector<resilience::CheckpointRecord> records =
              resilience::load_checkpoint(checkpoint_path(id));
          // Size from the checkpoint, not the submission: a compacted
          // snapshot strips a finished job's view pixels.
          std::size_t n_views = request.views.size();
          for (const resilience::CheckpointRecord& cp : records) {
            n_views = std::max<std::size_t>(
                n_views, static_cast<std::size_t>(cp.view_index) + 1);
          }
          job->results.resize(n_views);
          for (const resilience::CheckpointRecord& cp : records) {
            if (cp.view_index >= job->results.size()) continue;
            job->results[cp.view_index] = core::from_record(cp);
          }
        }
        jobs_[id] = job;
        continue;
      }

      // Incomplete: re-admit.  Views already checkpointed are restored
      // verbatim and skipped by the batch body — per-view determinism
      // makes the combined result bitwise-identical to an
      // uninterrupted run.
      job->views = std::move(request.views);
      job->initial = std::move(request.initial);
      job->centers = std::move(request.centers);
      job->results.resize(job->views.size());
      job->restored.assign(job->views.size(), 0);

      std::vector<resilience::CheckpointRecord> seed =
          resilience::load_checkpoint(checkpoint_path(id));
      for (const resilience::CheckpointRecord& cp : seed) {
        if (cp.view_index >= job->results.size()) continue;
        job->results[cp.view_index] = core::from_record(cp);
        job->restored[cp.view_index] = 1;
      }
      job->checkpoint = std::make_unique<resilience::CheckpointWriter>(
          checkpoint_path(id), options_.checkpoint_flush_every,
          std::move(seed));

      auto model = models_.find(job->model);
      if (model == models_.end()) {
        job->state = JobState::kFailed;
        job->error = "model '" + job->model + "' not registered at recovery";
        job->end_ns = job->submit_ns;
        LifecycleEvent event;
        event.job = id;
        event.error = job->error;
        journal_append_locked(JobRecordType::kFailed,
                              encode_lifecycle(event), /*durable=*/false);
        failed_->add();
        jobs_[id] = job;
        continue;
      }
      job->refiner = model->second;

      // Every incomplete job was acknowledged durably, so every one is
      // re-admitted: queue_capacity bounds new submits only, and a
      // crash can leave up to queue_capacity + max_running incomplete.
      queue_.push_back(id);
      job->state = JobState::kQueued;
      jobs_[id] = job;
      ++readmitted;
      replayed_jobs_->add();
    }
    recovery_plan_.clear();
    queue_depth_->set(static_cast<double>(queue_.size()));

    // Compact: one snapshot segment holding the submission of every
    // live job and the terminal record of every finished one, so the
    // journal does not grow without bound across restarts.
    std::vector<journal::Record> snapshot;
    for (const auto& [id, job] : jobs_) {
      SubmittedJob submitted;
      submitted.job = id;
      submitted.tenant = job->tenant;
      submitted.model = job->model;
      submitted.idempotency_key = job->idempotency_key;
      submitted.deadline_ns = job->deadline_ns;
      submitted.views = job->views;      // empty for terminal jobs
      submitted.initial = job->initial;
      submitted.centers = job->centers;
      snapshot.push_back(
          {static_cast<std::uint32_t>(JobRecordType::kSubmitted),
           encode_submitted(submitted)});
      if (job->state != JobState::kQueued &&
          job->state != JobState::kRunning) {
        LifecycleEvent event;
        event.job = id;
        event.error = job->error;
        const JobRecordType type =
            job->state == JobState::kDone        ? JobRecordType::kDone
            : job->state == JobState::kCancelled ? JobRecordType::kCancelled
            : job->state == JobState::kTimedOut  ? JobRecordType::kTimedOut
                                                 : JobRecordType::kFailed;
        snapshot.push_back({static_cast<std::uint32_t>(type),
                            encode_lifecycle(event)});
      }
    }
    journal_->rewrite(snapshot);
  }
  cv_dispatch_.notify_all();
  cv_job_.notify_all();
  return readmitted;
}

SubmitResult RefineService::submit(JobRequest request) {
  submitted_->add();
  const auto reject = [this](Admission why) {
    (why == Admission::kQueueFull
         ? rejected_queue_
         : why == Admission::kQuotaExhausted ? rejected_quota_
                                             : rejected_other_)
        ->add();
    return SubmitResult{0, why};
  };

  if (request.views.empty() ||
      request.views.size() != request.initial.size() ||
      (!request.centers.empty() &&
       request.centers.size() != request.views.size())) {
    return reject(Admission::kBadRequest);
  }

  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);

    // Idempotent resubmission is a read, not an admission: it dedups
    // even while draining, against live and terminal jobs alike, and
    // across a crash (the key replays from the journal).
    if (!request.idempotency_key.empty()) {
      auto hit = idempotency_.find(request.idempotency_key);
      if (hit != idempotency_.end()) {
        deduplicated_->add();
        return SubmitResult{hit->second, Admission::kAccepted,
                            /*deduplicated=*/true};
      }
    }

    if (draining_ || stop_) return reject(Admission::kDraining);

    auto model = models_.find(request.model);
    if (model == models_.end()) return reject(Admission::kUnknownModel);

    if (!open_tenancy_ && tenants_.find(request.tenant) == tenants_.end()) {
      return reject(Admission::kUnknownTenant);
    }
    Tenant& tenant = tenant_entry_locked(request.tenant);

    // Bounded backlog before the bucket: a queue-full shed is a
    // service-wide condition, so it must not also debit the tenant's
    // tokens (a client retrying through a full queue would otherwise
    // get double-punished with kQuotaExhausted once the queue opens).
    if (queue_.size() >= options_.queue_capacity) {
      return reject(Admission::kQueueFull);
    }
    if (!tenant.bucket.try_acquire(now_ns())) {
      tenant.rejected_quota->add();
      return reject(Admission::kQuotaExhausted);
    }

    job = std::make_shared<Job>();
    job->id = next_job_id_++;
    job->state = JobState::kQueued;
    job->tenant = request.tenant;
    job->model = request.model;
    job->idempotency_key = request.idempotency_key;
    job->deadline_ns = request.deadline_ns != 0 ? request.deadline_ns
                                                : options_.default_deadline_ns;
    job->refiner = model->second;
    job->views = std::move(request.views);
    job->initial = std::move(request.initial);
    job->centers = std::move(request.centers);
    job->results.resize(job->views.size());
    job->submit_ns = now_ns();

    // Durability before acknowledgement: the fsync'd submission record
    // is the promise submit() returns on.  A journal failure throws
    // out of here with the job NOT admitted (jobs_/queue_ untouched,
    // no id handed out) — the client retries against a consistent
    // service.
    if (journal_) {
      SubmittedJob submitted;
      submitted.job = job->id;
      submitted.tenant = job->tenant;
      submitted.model = job->model;
      submitted.idempotency_key = job->idempotency_key;
      submitted.deadline_ns = job->deadline_ns;
      submitted.views = job->views;
      submitted.initial = job->initial;
      submitted.centers = job->centers;
      journal_append_locked(JobRecordType::kSubmitted,
                            encode_submitted(submitted), /*durable=*/true);
    }

    jobs_[job->id] = job;
    if (!job->idempotency_key.empty()) {
      idempotency_[job->idempotency_key] = job->id;
    }

    queue_.push_back(job->id);
    queue_depth_->set(static_cast<double>(queue_.size()));
    tenant.accepted->add();
  }
  accepted_->add();
  cv_dispatch_.notify_one();
  return SubmitResult{job->id, Admission::kAccepted};
}

void RefineService::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_dispatch_.wait(lock, [this] {
      return stop_ || (!queue_.empty() && running_ < max_running_);
    });
    if (stop_) return;

    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    queue_depth_->set(static_cast<double>(queue_.size()));

    auto it = jobs_.find(id);
    POR_EXPECT(it != jobs_.end(), "serve: queued job id unknown", "id =", id);
    std::shared_ptr<Job> job = it->second;
    if (job->state == JobState::kCancelled) {
      // No finalize will run for this job; wake drain() waiters in case
      // this pop emptied the backlog.
      cv_job_.notify_all();
      continue;
    }

    // A deadline that expired while the job sat in the queue: surface
    // kTimedOut here instead of burning workers on doomed views.
    const std::uint64_t start = now_ns();
    if (job->deadline_ns != 0 && start >= job->submit_ns + job->deadline_ns) {
      job->state = JobState::kTimedOut;
      job->end_ns = start;
      timed_out_->add();
      LifecycleEvent event;
      event.job = job->id;
      journal_append_locked(JobRecordType::kTimedOut, encode_lifecycle(event),
                            /*durable=*/false);
      latency_->observe(static_cast<double>(job->end_ns - job->submit_ns) *
                        1e-9);
      cv_job_.notify_all();
      continue;
    }

    job->state = JobState::kRunning;
    job->start_ns = start;
    job->token = std::make_shared<core::CancelToken>(clock_);
    if (job->deadline_ns != 0) {
      job->token->set_deadline_ns(job->submit_ns + job->deadline_ns);
    }
    if (journal_ && !job->checkpoint) {
      // Recovered jobs arrive with a seeded writer; fresh jobs open
      // theirs here (the constructor only records the path — the first
      // file write happens at the first flush, off this lock's path).
      job->checkpoint = std::make_unique<resilience::CheckpointWriter>(
          checkpoint_path(job->id), options_.checkpoint_flush_every);
    }
    {
      LifecycleEvent event;
      event.job = job->id;
      journal_append_locked(JobRecordType::kRunning, encode_lifecycle(event),
                            /*durable=*/false);
    }
    ++running_;
    running_gauge_->set(static_cast<double>(running_));

    lock.unlock();
    dispatch(job);
    lock.lock();
  }
}

void RefineService::dispatch(const std::shared_ptr<Job>& job) {
  const std::size_t n = job->views.size();
  Job* raw = job.get();  // the batch body/callback keep `job` alive
  scheduler_->submit(
      n,
      [raw](std::size_t i) {
        // Views restored from the recovery checkpoint are already in
        // results[i]; refining them again would be wasted work (the
        // answer is deterministic) and would double-checkpoint them.
        if (!raw->restored.empty() && raw->restored[i] != 0) return;
        const auto center = raw->centers.empty()
                                ? std::pair<double, double>{0.0, 0.0}
                                : raw->centers[i];
        // The chunk-boundary poll: the token is checked here (inside
        // refine_view, before the FFT) and again down inside
        // sliding_window_search, so a cancel/deadline lands within one
        // stride of candidates, not one view.
        raw->results[i] = raw->refiner->refine_view(
            raw->views[i], raw->initial[i], center.first, center.second,
            raw->token.get());
        if (raw->checkpoint) {
          const resilience::CheckpointRecord cp =
              core::to_record(i, raw->results[i]);
          std::lock_guard<std::mutex> guard(raw->checkpoint_mutex);
          raw->checkpoint->append(cp);
          ++raw->views_done;
        }
      },
      [this, job](Batch& batch) { finalize(job, batch); });
}

void RefineService::finalize(const std::shared_ptr<Job>& job, Batch& batch) {
  std::string error;
  bool was_cancelled = false;
  bool was_timeout = false;
  if (batch.failed()) {
    try {
      batch.wait();  // already complete; rethrows the recorded error
    } catch (const core::Cancelled& e) {
      was_cancelled = true;
      was_timeout = e.timed_out();
      error = e.what();
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown refinement error";
    }
  }

  // Persist the final per-view state BEFORE journaling the terminal
  // record: a kDone in the journal promises the checkpoint holds every
  // view.  Outside mutex_ (atomic_write_file does real I/O) and under
  // the job's own checkpoint lock.
  std::size_t views_done = 0;
  if (job->checkpoint) {
    std::lock_guard<std::mutex> guard(job->checkpoint_mutex);
    views_done = job->views_done;
    try {
      job->checkpoint->flush();
    } catch (const std::exception& e) {
      util::log_warn("serve: checkpoint flush for job ", job->id,
                     " failed: ", e.what());
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->end_ns = now_ns();
    LifecycleEvent event;
    event.job = job->id;
    event.views_done = views_done;
    if (journal_) {
      journal_append_locked(JobRecordType::kViewBatchDone,
                            encode_lifecycle(event), /*durable=*/false);
    }
    if (batch.failed()) {
      if (was_cancelled && was_timeout) {
        job->state = JobState::kTimedOut;
        job->error = error;
        timed_out_->add();
        journal_append_locked(JobRecordType::kTimedOut,
                              encode_lifecycle(event), /*durable=*/false);
      } else if (was_cancelled) {
        job->state = JobState::kCancelled;
        job->error = error;
        cancelled_->add();
        journal_append_locked(JobRecordType::kCancelled,
                              encode_lifecycle(event), /*durable=*/false);
      } else {
        job->state = JobState::kFailed;
        job->error = error.empty() ? "refinement failed" : error;
        event.error = job->error;
        failed_->add();
        journal_append_locked(JobRecordType::kFailed, encode_lifecycle(event),
                              /*durable=*/false);
      }
    } else {
      job->state = JobState::kDone;
      completed_->add();
      tenant_entry_locked(job->tenant).completed->add();
      journal_append_locked(JobRecordType::kDone, encode_lifecycle(event),
                            /*durable=*/false);
      // The pixels are no longer needed (results carry the answer);
      // dropping them keeps terminal jobs cheap to hold and keeps the
      // recovery compaction snapshot small.
      job->views.clear();
      job->views.shrink_to_fit();
    }
    latency_->observe(static_cast<double>(job->end_ns - job->submit_ns) *
                      1e-9);
    POR_EXPECT(running_ > 0, "serve: finalize without a running job");
    --running_;
    running_gauge_->set(static_cast<double>(running_));
  }
  cv_job_.notify_all();
  cv_dispatch_.notify_all();
  // The job's checkpoint is final — recovery only reads it — so the
  // spare its rewrites kept (resilience::atomic_write_file) would only
  // hold disk.  Dropped after the waiters wake: freeing blocks can stall
  // on a filesystem that discards them, and no answer depends on it.
  if (job->checkpoint) resilience::remove_spare(job->checkpoint->path());
}

JobStatus RefineService::status_locked(const Job& job) const {
  JobStatus out;
  out.job = job.id;
  out.state = job.state;
  out.tenant = job.tenant;
  out.model = job.model;
  out.error = job.error;
  if (job.end_ns != 0) {
    out.latency_seconds =
        static_cast<double>(job.end_ns - job.submit_ns) * 1e-9;
  }
  if (job.state == JobState::kDone) out.results = job.results;
  return out;
}

JobStatus RefineService::status(std::uint64_t job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    throw std::out_of_range("serve: unknown job id " + std::to_string(job));
  }
  return status_locked(*it->second);
}

std::vector<std::uint64_t> RefineService::job_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) ids.push_back(id);  // map: ascending
  return ids;
}

JobStatus RefineService::wait(std::uint64_t job) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    throw std::out_of_range("serve: unknown job id " + std::to_string(job));
  }
  std::shared_ptr<Job> entry = it->second;
  cv_job_.wait(lock, [&] {
    return entry->state == JobState::kDone ||
           entry->state == JobState::kFailed ||
           entry->state == JobState::kCancelled ||
           entry->state == JobState::kTimedOut;
  });
  return status_locked(*entry);
}

bool RefineService::cancel(std::uint64_t job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(job);
    if (it == jobs_.end()) return false;
    Job& entry = *it->second;
    switch (entry.state) {
      case JobState::kQueued: {
        // The id stays in the queue; the dispatcher pops and skips
        // it.  This transition and the dispatcher's kQueued->kRunning
        // one are serialized by mutex_, so a cancel racing the
        // dequeue lands in exactly one of the two paths.
        entry.state = JobState::kCancelled;
        entry.end_ns = now_ns();
        cancelled_->add();
        LifecycleEvent event;
        event.job = entry.id;
        // Durable: "cancelled" is an acknowledgement too — the job
        // must not rise from the dead and execute after a crash.
        try {
          journal_append_locked(JobRecordType::kCancelled,
                                encode_lifecycle(event), /*durable=*/true);
        } catch (const std::exception& e) {
          util::log_warn("serve: cancel journal append failed: ", e.what());
        }
        break;
      }
      case JobState::kRunning:
        // Cooperative: fire the token; the workers observe it at the
        // next poll and finalize() publishes the single terminal state
        // (kCancelled — or kDone if every view already finished).
        entry.token->cancel();
        break;
      case JobState::kDone:
      case JobState::kFailed:
      case JobState::kCancelled:
      case JobState::kTimedOut:
        return false;
    }
  }
  cv_job_.notify_all();
  return true;
}

void RefineService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  cv_job_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void RefineService::shutdown() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    stop_ = true;
  }
  cv_dispatch_.notify_all();
  dispatcher_.join();
}

}  // namespace por::serve
