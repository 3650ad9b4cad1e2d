// bench_serve — the por::serve multi-tenant refinement service under a
// sustained scripted load (DESIGN.md §11).
//
// The harness registers one phantom model, then pushes --jobs small
// refinement jobs (each a shard of --views views from a shared pool)
// through a --workers-worker RefineService from --tenants round-robin
// tenants.  Admission is the production path: per-tenant token buckets
// plus the bounded queue.  When the queue sheds load the client backs
// off by waiting on its oldest in-flight job and retries, so every job
// eventually completes while the rejection counts record how hard the
// front door had to push back.
//
// Two gates make this a correctness harness, not just a stopwatch:
//   * every job's refined orientations are re-derived serially
//     (refine_view on a private single-tenant refiner) and compared
//     bitwise — any mismatch exits 1, so CI catches a scheduler that
//     loses determinism;
//   * the reported p50/p99 come from the serve.job_latency_seconds
//     log-bucket histogram in por::obs — the same numbers a dashboard
//     would scrape — not from a private stopwatch array.
//
// Flags: --jobs <n>    (default 2000)   --tenants <n> (default 3)
//        --workers <n> (default 8)      --views <n>   (default 1)
//        --l <edge>    (default 16)     --queue <n>   (default 64)
//        --out <path>  (default BENCH_serve.json)

#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench_helpers.hpp"
#include "por/core/refiner.hpp"
#include "por/obs/export.hpp"
#include "por/obs/registry.hpp"
#include "por/serve/service.hpp"
#include "por/util/cli.hpp"
#include "por/util/timer.hpp"

namespace {

using namespace por;

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

core::RefinerConfig small_job_config() {
  core::RefinerConfig config;
  config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                     core::SearchLevel{0.5, 3, 0.5, 3}};
  config.match.r_map = 8.0;
  return config;
}

/// Field-by-field equality of the full refined record — orientation,
/// center, score and the per-view statistics all have to match for the
/// "bitwise-identical to a serial run" claim to hold.
bool identical(const core::ViewResult& a, const core::ViewResult& b) {
  return a.orientation.theta == b.orientation.theta &&
         a.orientation.phi == b.orientation.phi &&
         a.orientation.omega == b.orientation.omega &&
         a.center_x == b.center_x && a.center_y == b.center_y &&
         a.final_distance == b.final_distance && a.matchings == b.matchings &&
         a.cache_hits == b.cache_hits && a.center_evals == b.center_evals &&
         a.window_slides == b.window_slides && a.quarantined == b.quarantined;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  const std::size_t jobs = static_cast<std::size_t>(cli.get_int("jobs", 2000));
  const std::size_t tenants =
      static_cast<std::size_t>(cli.get_int("tenants", 3));
  const std::size_t workers =
      static_cast<std::size_t>(cli.get_int("workers", 8));
  const std::size_t views_per_job =
      static_cast<std::size_t>(cli.get_int("views", 1));
  const std::size_t l = static_cast<std::size_t>(cli.get_int("l", 16));
  const std::size_t queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue", 64));
  const std::string out = cli.get("out", "BENCH_serve.json");
  cli.assert_all_consumed();

  std::printf("bench_serve: jobs=%zu tenants=%zu workers=%zu views/job=%zu "
              "l=%zu queue=%zu\n",
              jobs, tenants, workers, views_per_job, l, queue_capacity);

  // A pool of simulated views the jobs shard over; generating one view
  // per job would time the phantom projector, not the service.
  bench::WorkloadSpec spec;
  spec.l = l;
  spec.view_count = 32;
  const bench::Workload workload = bench::asymmetric_workload(spec);
  const core::RefinerConfig config = small_job_config();

  serve::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = queue_capacity;
  for (std::size_t t = 0; t < tenants; ++t) {
    // Generous sustained rate so the bounded queue — not the buckets —
    // is the limiter under this closed-loop client; the buckets still
    // meter every submit through the production code path.
    options.tenants.push_back(
        serve::TenantConfig{"tenant-" + std::to_string(t), 1e6, 64.0});
  }
  serve::RefineService service(options);
  service.register_model("phantom", workload.map, config);

  // Closed-loop load: submit every job, backing off on rejection by
  // waiting for the oldest in-flight job to finish before retrying.
  struct Submitted {
    std::uint64_t id;
    std::size_t first_view;
  };
  std::deque<std::uint64_t> in_flight;
  std::vector<Submitted> accepted;
  accepted.reserve(jobs);
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_quota = 0;

  util::WallTimer wall;
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::size_t first_view = (j * views_per_job) % workload.views.size();
    serve::JobRequest request;
    request.tenant = "tenant-" + std::to_string(j % tenants);
    request.model = "phantom";
    for (std::size_t v = 0; v < views_per_job; ++v) {
      const std::size_t i = (first_view + v) % workload.views.size();
      request.views.push_back(workload.views[i]);
      request.initial.push_back(workload.initial[i]);
    }
    for (;;) {
      const serve::SubmitResult result = service.submit(request);
      if (result.accepted()) {
        in_flight.push_back(result.job);
        accepted.push_back({result.job, first_view});
        break;
      }
      if (result.admission == serve::Admission::kQueueFull) {
        ++rejected_queue_full;
      } else if (result.admission == serve::Admission::kQuotaExhausted) {
        ++rejected_quota;
      } else {
        std::fprintf(stderr, "bench_serve: FAIL unexpected rejection: %s\n",
                     serve::to_string(result.admission));
        return 1;
      }
      if (!in_flight.empty()) {
        service.wait(in_flight.front());
        in_flight.pop_front();
      }
    }
  }
  service.drain();
  const double seconds = wall.seconds();
  const double jobs_per_sec = seconds > 0.0 ? double(jobs) / seconds : 0.0;

  // Latency quantiles straight from the obs histogram export path.
  const obs::Snapshot snapshot = obs::current_registry().snapshot();
  const auto histogram = snapshot.histograms.find("serve.job_latency_seconds");
  if (histogram == snapshot.histograms.end() ||
      histogram->second.count != jobs) {
    std::fprintf(stderr,
                 "bench_serve: FAIL serve.job_latency_seconds recorded %llu "
                 "jobs, expected %zu\n",
                 histogram == snapshot.histograms.end()
                     ? 0ULL
                     : static_cast<unsigned long long>(
                           histogram->second.count),
                 jobs);
    return 1;
  }
  const double p50 = obs::histogram_quantile(histogram->second, 0.5);
  const double p99 = obs::histogram_quantile(histogram->second, 0.99);

  // Determinism gate: every job, every view, against a private
  // single-tenant serial refiner built from the same map + config.
  const core::OrientationRefiner serial(workload.map, config);
  std::size_t mismatches = 0;
  for (const Submitted& job : accepted) {
    const serve::JobStatus status = service.status(job.id);
    if (status.state != serve::JobState::kDone) {
      std::fprintf(stderr, "bench_serve: FAIL job %llu finished %s: %s\n",
                   static_cast<unsigned long long>(job.id),
                   serve::to_string(status.state), status.error.c_str());
      return 1;
    }
    for (std::size_t v = 0; v < status.results.size(); ++v) {
      const std::size_t i = (job.first_view + v) % workload.views.size();
      const core::ViewResult reference =
          serial.refine_view(workload.views[i], workload.initial[i]);
      if (!identical(status.results[v], reference)) ++mismatches;
    }
  }

  std::printf("  %zu jobs in %.2f s  (%.1f jobs/s)  p50 %.3f ms  p99 %.3f ms\n",
              jobs, seconds, jobs_per_sec, p50 * 1e3, p99 * 1e3);
  std::printf("  admission: %llu queue-full, %llu quota rejections  "
              "mismatches: %zu\n",
              static_cast<unsigned long long>(rejected_queue_full),
              static_cast<unsigned long long>(rejected_quota), mismatches);

  std::string json = "{\n";
  json += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  json += "  \"tenants\": " + std::to_string(tenants) + ",\n";
  json += "  \"workers\": " + std::to_string(workers) + ",\n";
  json += "  \"views_per_job\": " + std::to_string(views_per_job) + ",\n";
  json += "  \"l\": " + std::to_string(l) + ",\n";
  json += "  \"queue_capacity\": " + std::to_string(queue_capacity) + ",\n";
  json += "  \"wall_seconds\": " + json_number(seconds) + ",\n";
  json += "  \"jobs_per_sec\": " + json_number(jobs_per_sec) + ",\n";
  json += "  \"latency_p50_seconds\": " + json_number(p50) + ",\n";
  json += "  \"latency_p99_seconds\": " + json_number(p99) + ",\n";
  json += "  \"rejected_queue_full\": " + std::to_string(rejected_queue_full) +
          ",\n";
  json += "  \"rejected_quota\": " + std::to_string(rejected_quota) + ",\n";
  json += "  \"bitwise_mismatches\": " + std::to_string(mismatches) + "\n";
  json += "}\n";
  obs::write_text_file(out, json);
  std::printf("  wrote %s\n", out.c_str());

  if (mismatches > 0) {
    std::fprintf(stderr,
                 "bench_serve: FAIL %zu refined views diverged from the "
                 "serial single-tenant run\n",
                 mismatches);
    return 1;
  }
  return 0;
}
