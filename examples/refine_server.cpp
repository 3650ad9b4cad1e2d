// refine_server — the por::serve multi-tenant service, end to end.
//
// A scripted workload drives one RefineService the way a cluster front
// end would:
//
// 1. Register two phantom density maps as named models ("sindbis",
//    "reo") — the padded 3D DFT is built once, off the request path.
// 2. Configure three tenants with different token-bucket quotas: two
//    well-behaved labs and one deliberately throttled free-rider.
// 3. Submit a burst of refinement jobs from all three.  The free-rider
//    blows through its quota and collects kQuotaExhausted rejections;
//    a too-deep backlog is shed with kQueueFull; everyone else flows.
// 4. Show the job lifecycle: poll a status, cancel a queued job, then
//    drain the service and print every tenant's outcome plus the
//    p50/p95/p99 job-latency quantiles from the por::obs histogram.
//
//   ./refine_server [--l 20] [--workers 4] [--jobs 18] [--queue 6]
//
// Crash-only mode (DESIGN.md §15): pass --journal DIR and every
// accepted job is write-ahead journaled, so the scripted burst can be
// `kill -9`ed at ANY instant and replayed:
//
//   ./refine_server --journal /tmp/por-wal &
//   sleep 0.2 && kill -9 $!            # murder it mid-burst
//   ./refine_server --journal /tmp/por-wal --resume
//
// The --resume run submits nothing: it replays the journal, re-admits
// every acknowledged-but-unfinished job (resuming from per-view PORC
// checkpoints), finishes them, and prints the recovered outcomes —
// bitwise-identical to what the murdered process would have produced.
// --deadline-ms puts a per-job deadline on the burst so the demo also
// shows jobs surfacing kTimedOut instead of hanging.

#include <cstdio>
#include <string>
#include <vector>

#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "por/obs/export.hpp"
#include "por/obs/registry.hpp"
#include "por/serve/service.hpp"
#include "por/util/cli.hpp"
#include "por/util/rng.hpp"

using namespace por;

namespace {

struct Shard {
  std::vector<em::Image<double>> views;
  std::vector<em::Orientation> initial;
};

/// A small shard of simulated views of `particle` with 3-degree-ish
/// initial estimates, as in the quickstart.
Shard make_shard(const em::BlobModel& particle, std::size_t l,
                 std::size_t count, util::Rng& rng) {
  Shard shard;
  for (std::size_t i = 0; i < count; ++i) {
    double theta, phi;
    rng.sphere_point(theta, phi);
    const em::Orientation o{em::rad2deg(theta), em::rad2deg(phi),
                            rng.uniform(0.0, 360.0)};
    em::Image<double> view = particle.project_analytic(l, o);
    em::add_gaussian_noise(view, 4.0, rng);
    shard.views.push_back(std::move(view));
    shard.initial.push_back({o.theta + rng.uniform(-1.5, 1.5),
                             o.phi + rng.uniform(-1.5, 1.5),
                             o.omega + rng.uniform(-1.5, 1.5)});
  }
  return shard;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: refine_server [--l 20] [--workers 4] [--jobs 18] [--queue 6]\n"
        "                     [--journal DIR] [--resume] [--deadline-ms N]\n\n"
        "  --journal DIR    write-ahead journal every job transition into DIR;\n"
        "                   the process becomes kill -9-safe (DESIGN.md 15)\n"
        "  --resume         submit nothing; replay DIR, re-admit unfinished\n"
        "                   jobs from their checkpoints and finish them\n"
        "  --deadline-ms N  per-job deadline; overrunning jobs surface\n"
        "                   timed_out instead of running forever (0 = none)\n\n"
        "Environment:\n  POR_FORCE_ISA=sse2|avx2|avx512   pin the SIMD tier of the matching\n                                   kernels (default: best the CPU has;\n                                   clamped to what is available)\n");
    return 0;
  }
  const std::size_t l = static_cast<std::size_t>(cli.get_int("l", 20));
  const std::size_t workers =
      static_cast<std::size_t>(cli.get_int("workers", 4));
  const std::size_t jobs = static_cast<std::size_t>(cli.get_int("jobs", 18));
  const std::size_t queue = static_cast<std::size_t>(cli.get_int("queue", 6));
  const std::string journal_dir = cli.get("journal", "");
  const bool resume = cli.has("resume") && cli.get_bool("resume", true);
  const long long deadline_ms = cli.get_int("deadline-ms", 0);
  cli.assert_all_consumed();
  if (resume && journal_dir.empty()) {
    std::fprintf(stderr, "refine_server: --resume requires --journal DIR\n");
    return 2;
  }

  const std::string journal_note =
      journal_dir.empty() ? "" : " journal=" + journal_dir;
  std::printf("refine_server: l=%zu workers=%zu jobs=%zu queue=%zu%s%s\n\n", l,
              workers, jobs, queue, journal_note.c_str(),
              resume ? " (resume)" : "");

  // --- 1. the service: three tenants, two of them well-provisioned ---
  serve::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = queue;
  options.journal_dir = journal_dir;
  options.checkpoint_flush_every = 1;  // per-view durability for the demo
  if (deadline_ms > 0) {
    options.default_deadline_ns =
        static_cast<std::uint64_t>(deadline_ms) * 1'000'000ull;
  }
  options.tenants = {
      serve::TenantConfig{"lab-sindbis", 1e6, 32.0},
      serve::TenantConfig{"lab-reo", 1e6, 32.0},
      // Throttled: 2 jobs/s sustained, a single job of burst.
      serve::TenantConfig{"free-rider", 2.0, 1.0},
  };
  serve::RefineService service(options);

  em::PhantomSpec spec;
  spec.l = l;
  core::RefinerConfig config;
  config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                     core::SearchLevel{0.5, 3, 0.5, 3}};
  config.match.r_map = static_cast<double>(l) / 2.0;
  const em::BlobModel sindbis = em::make_sindbis_like(spec);
  const em::BlobModel reo = em::make_reo_like(spec);
  service.register_model("sindbis", sindbis.rasterize(l), config);
  service.register_model("reo", reo.rasterize(l), config);
  std::printf("registered models: sindbis, reo  (%zu workers)\n\n",
              service.workers());

  // --- crash recovery: replay whatever a murdered run left ----------
  if (!journal_dir.empty()) {
    const std::size_t readmitted = service.recover();
    const std::vector<std::uint64_t> known = service.job_ids();
    std::printf("journal replay: %zu known job(s), %zu re-admitted\n",
                known.size(), readmitted);
    if (resume) {
      service.drain();
      std::printf("recovered jobs drained\n\n");
      std::printf("%5s  %-11s  %-9s  %s\n", "job", "tenant", "state",
                  "error");
      for (const std::uint64_t id : known) {
        const serve::JobStatus status = service.status(id);
        std::printf("%5llu  %-11s  %-9s  %s\n",
                    static_cast<unsigned long long>(id),
                    status.tenant.c_str(), serve::to_string(status.state),
                    status.error.c_str());
      }
      const obs::Snapshot recovered = obs::current_registry().snapshot();
      const auto counter = [&recovered](const char* name) {
        const auto it = recovered.counters.find(name);
        return it == recovered.counters.end() ? 0ull : it->second;
      };
      std::printf(
          "\nobs: recovery.replayed_jobs=%llu journal.appends=%llu "
          "journal.fsyncs=%llu journal.torn_tails=%llu\n",
          static_cast<unsigned long long>(counter("recovery.replayed_jobs")),
          static_cast<unsigned long long>(counter("journal.appends")),
          static_cast<unsigned long long>(counter("journal.fsyncs")),
          static_cast<unsigned long long>(counter("journal.torn_tails")));
      return 0;
    }
    std::printf("\n");
  }

  // --- 2 + 3. the scripted burst ------------------------------------
  util::Rng rng(7101);
  const Shard sindbis_shard = make_shard(sindbis, l, 2, rng);
  const Shard reo_shard = make_shard(reo, l, 2, rng);

  struct Outcome {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_quota = 0;
    std::uint64_t rejected_queue = 0;
    std::uint64_t done = 0;
    std::uint64_t cancelled = 0;
  };
  std::vector<std::pair<std::string, Outcome>> tenants = {
      {"lab-sindbis", {}}, {"lab-reo", {}}, {"free-rider", {}}};
  std::vector<std::uint64_t> submitted_ids;

  for (std::size_t j = 0; j < jobs; ++j) {
    auto& [tenant, outcome] = tenants[j % tenants.size()];
    const bool use_reo = tenant == "lab-reo";
    serve::JobRequest request;
    request.tenant = tenant;
    request.model = use_reo ? "reo" : "sindbis";
    const Shard& shard = use_reo ? reo_shard : sindbis_shard;
    request.views = shard.views;
    request.initial = shard.initial;
    if (!journal_dir.empty()) {
      // Stable per-slot keys: re-running the same burst against the
      // same journal dedups onto the original executions instead of
      // refining everything twice.
      request.idempotency_key = "burst-" + std::to_string(j);
    }
    const serve::SubmitResult result = service.submit(request);
    if (result.accepted()) {
      ++outcome.accepted;
      submitted_ids.push_back(result.job);
    } else if (result.admission == serve::Admission::kQuotaExhausted) {
      ++outcome.rejected_quota;
    } else if (result.admission == serve::Admission::kQueueFull) {
      ++outcome.rejected_queue;
    }
    const std::string verdict =
        result.accepted()
            ? "job " + std::to_string(result.job) +
                  (result.deduplicated ? " (deduplicated)" : "")
            : std::string(serve::to_string(result.admission));
    std::printf("submit #%02zu %-11s -> %s\n", j, tenant.c_str(),
                verdict.c_str());
  }

  // --- 4. lifecycle: status, a cancellation, then drain -------------
  if (!submitted_ids.empty()) {
    const serve::JobStatus peek = service.status(submitted_ids.front());
    std::printf("\njob %llu status while serving: %s\n",
                static_cast<unsigned long long>(peek.job),
                serve::to_string(peek.state));
    const std::uint64_t last = submitted_ids.back();
    if (service.cancel(last)) {
      std::printf("cancelled queued job %llu\n",
                  static_cast<unsigned long long>(last));
    }
  }
  service.drain();
  std::printf("service drained\n\n");

  for (const std::uint64_t id : submitted_ids) {
    const serve::JobStatus status = service.status(id);
    for (auto& [tenant, outcome] : tenants) {
      if (tenant != status.tenant) continue;
      if (status.state == serve::JobState::kDone) ++outcome.done;
      if (status.state == serve::JobState::kCancelled) ++outcome.cancelled;
    }
  }
  std::printf("%-11s  %8s  %5s  %9s  %10s  %9s\n", "tenant", "accepted",
              "done", "cancelled", "quota-rej", "queue-rej");
  for (const auto& [tenant, outcome] : tenants) {
    std::printf("%-11s  %8llu  %5llu  %9llu  %10llu  %9llu\n", tenant.c_str(),
                static_cast<unsigned long long>(outcome.accepted),
                static_cast<unsigned long long>(outcome.done),
                static_cast<unsigned long long>(outcome.cancelled),
                static_cast<unsigned long long>(outcome.rejected_quota),
                static_cast<unsigned long long>(outcome.rejected_queue));
  }

  const obs::Snapshot snapshot = obs::current_registry().snapshot();
  const auto histogram = snapshot.histograms.find("serve.job_latency_seconds");
  if (histogram != snapshot.histograms.end() && histogram->second.count > 0) {
    std::printf("\njob latency: p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  "
                "(%llu jobs)\n",
                obs::histogram_quantile(histogram->second, 0.5) * 1e3,
                obs::histogram_quantile(histogram->second, 0.95) * 1e3,
                obs::histogram_quantile(histogram->second, 0.99) * 1e3,
                static_cast<unsigned long long>(histogram->second.count));
  }
  std::printf("scheduler: %llu requeued tasks\n",
              static_cast<unsigned long long>(
                  service.scheduler().requeued_tasks()));
  const auto counter = [&snapshot](const char* name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0ull : it->second;
  };
  if (!journal_dir.empty() || deadline_ms > 0) {
    std::printf(
        "durability: journal.appends=%llu journal.fsyncs=%llu "
        "jobs.timed_out=%llu jobs.deduplicated=%llu\n",
        static_cast<unsigned long long>(counter("journal.appends")),
        static_cast<unsigned long long>(counter("journal.fsyncs")),
        static_cast<unsigned long long>(counter("serve.jobs.timed_out")),
        static_cast<unsigned long long>(counter("serve.jobs.deduplicated")));
  }
  return 0;
}
