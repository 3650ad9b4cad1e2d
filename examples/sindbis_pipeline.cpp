// sindbis_pipeline — the paper's Sindbis experiment, end to end, on a
// synthetic alphavirus-like particle.
//
// The paper took orientations previously determined by symmetry-
// exploiting programs ("old") and showed that the new Fourier-space
// multi-resolution refinement pushes the FSC 0.5 crossing to higher
// resolution (11.2 A -> 10.0 A on the real data).  This example
// replays that protocol:
//
//   1. build an icosahedral alphavirus-like phantom,
//   2. simulate a view set through CTF + noise,
//   3. assign "old" orientations with the exhaustive asymmetric-unit
//      projection matcher (fixed coarse grid),
//   4. refine with the new algorithm (distributed across vmpi ranks),
//   5. reconstruct from old vs refined orientations through
//      core::reconstruct_refined (Wiener-corrected views, odd/even FSC)
//      and compare FSC curves and true-map correlations.
//
//   ./sindbis_pipeline [--l 48] [--views 60] [--snr 2] [--ranks 4]
//                      [--refine_workers 1] [--metrics-out report.json]
//                      [--checkpoint ckpt.porc] [--resume true]
//                      [--io_retries 3] [--kill_rank R] [--kill_at_step S]
//                      [--heartbeat_ms 500]
//                      [--shards DIR] [--max_resident_mb 0]
//
// Out-of-core demo (DESIGN.md §14): --shards DIR writes the simulated
// stack, the map and the initial orientations under DIR as a sharded
// view store and refines through core::parallel_refine_files — the
// paper-scale I/O model where the master never holds the whole stack.
// --max_resident_mb bounds its resident shard cache; results are
// bitwise-identical to the in-memory path on the same inputs.
//
// With --metrics-out the distributed refinement's obs::RunReport —
// per-rank counters (matchings, slides, interp fetches, vmpi traffic,
// resilience.*) and per-step spans, plus their cross-rank merge — is
// written as JSON.
//
// Resilience demo (DESIGN.md §10): --kill_rank R [--kill_at_step S]
// installs a fault plan that kills worker rank R after it has refined
// S views; the master's heartbeat detector notices the silence,
// redistributes R's unfinished views, and the refined orientations are
// bitwise-identical to a fault-free run.  --checkpoint records every
// refined view; rerunning with --resume restores them instead of
// recomputing.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "por/core/parallel_refiner.hpp"
#include "por/core/pipeline.hpp"
#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_source.hpp"
#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/obs/export.hpp"
#include "por/util/cli.hpp"
#include "por/util/rng.hpp"
#include "por/util/table.hpp"
#include "por/vmpi/runtime.hpp"

using namespace por;

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: sindbis_pipeline [--l 48] [--views 60] [--snr 2] [--ranks 4]\n\n    [--refine_workers 1] [--r_map R]\n\n    [--metrics-out report.json] [--checkpoint ckpt.porc] [--resume true]\n\n    [--io_retries 1] [--kill_rank R --kill_at_step N] [--heartbeat_ms 500]\n\n    [--shards DIR] [--max_resident_mb 0]\n\n"
        "Environment:\n  POR_FORCE_ISA=sse2|avx2|avx512   pin the SIMD tier of the matching\n                                   kernels (default: best the CPU has;\n                                   clamped to what is available)\n");
    return 0;
  }
  const std::size_t l = cli.get_int("l", 48);
  const int view_count = static_cast<int>(cli.get_int("views", 60));
  const double snr = cli.get_double("snr", 2.0);
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const int refine_workers =
      static_cast<int>(cli.get_int("refine_workers", 1));
  const double cli_r_map = cli.get_double("r_map", 0.0);
  const std::string metrics_out = cli.metrics_out();
  const std::string checkpoint = cli.get("checkpoint", "");
  const bool resume = cli.get_bool("resume", false);
  const int io_retries = static_cast<int>(cli.get_int("io_retries", 1));
  const int kill_rank = static_cast<int>(cli.get_int("kill_rank", -1));
  const std::uint64_t kill_at_step =
      static_cast<std::uint64_t>(cli.get_int("kill_at_step", 0));
  const int heartbeat_ms = static_cast<int>(cli.get_int("heartbeat_ms", 500));
  // Out-of-core demo (DESIGN.md §14): --shards <dir> writes the
  // simulated stack as a sharded store and refines through the
  // streaming driver instead of in-memory parallel_refine — the
  // master's view working set is then bounded by --max_resident_mb.
  const std::string shards_dir = cli.get("shards", "");
  const std::size_t max_resident_mb =
      static_cast<std::size_t>(cli.get_int("max_resident_mb", 0));
  cli.assert_all_consumed();

  std::printf("sindbis-like pipeline: l=%zu views=%d snr=%.1f ranks=%d\n\n", l,
              view_count, snr, ranks);

  em::PhantomSpec spec;
  spec.l = l;
  const em::BlobModel particle = em::make_sindbis_like(spec);
  const em::Volume<double> truth_map = particle.rasterize(l);
  const auto icos = em::SymmetryGroup::icosahedral();

  // ---- simulated microscope ----
  em::CtfParams ctf;
  ctf.pixel_size_a = 2.8;
  ctf.defocus_a = 16000.0;
  util::Rng rng(403);
  const double wiener_snr = std::max(1.0, snr * 10.0);
  std::vector<em::Image<double>> views;  // raw CTF'd views
  std::vector<em::Orientation> truth;
  for (int i = 0; i < view_count; ++i) {
    double theta, phi;
    rng.sphere_point(theta, phi);
    const em::Orientation o{em::rad2deg(theta), em::rad2deg(phi),
                            rng.uniform(0.0, 360.0)};
    em::Image<em::cdouble> spectrum =
        em::centered_fft2(particle.project_analytic(l, o));
    em::apply_ctf(spectrum, ctf);
    em::Image<double> view = em::centered_ifft2(spectrum);
    em::add_gaussian_noise(view, snr, rng);
    views.push_back(std::move(view));
    truth.push_back(o);
  }

  // ---- "old" orientations: the legacy programs delivered angles on a
  // ~3-degree grid (the paper starts from "a rough estimation of the
  // orientation, say at 3 degrees") — model that as the truth
  // quantized to 3 degrees.  (The from-scratch global matcher is
  // exercised by examples/micrograph_to_map and the figure benches.)
  std::vector<em::Orientation> old_orientations;
  old_orientations.reserve(truth.size());
  for (const auto& o : truth) {
    auto quantize = [](double deg) { return 3.0 * std::round(deg / 3.0); };
    old_orientations.push_back(
        em::Orientation{quantize(o.theta), quantize(o.phi), quantize(o.omega)});
  }
  const auto old_error =
      metrics::orientation_error_stats(old_orientations, truth, icos);
  std::printf("old (3-degree grid) orientations: error mean=%.2f deg "
              "median=%.2f deg\n\n",
              old_error.mean, old_error.median);

  // ---- the new refinement, distributed over vmpi ranks ----
  core::RefinerConfig refiner_config;
  refiner_config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                             core::SearchLevel{0.25, 5, 0.25, 3},
                             core::SearchLevel{0.05, 5, 0.05, 3}};
  // Match only out to the radius where per-pixel signal survives the
  // noise: the paper raises r_map gradually with the resolution of the
  // map rather than matching at Nyquist from the start.
  refiner_config.match.r_map = cli_r_map > 0.0
                                   ? cli_r_map
                                   : static_cast<double>(l) / 4.0;
  refiner_config.ctf = ctf;
  refiner_config.ctf_correction = em::CtfCorrection::kWiener;
  refiner_config.wiener_snr = wiener_snr;
  // Per-rank pooled batch refinement (DESIGN.md §11): N > 1
  // puts each rank's view batches on the por::serve scheduler,
  // bitwise-identical to the serial default.
  refiner_config.refine_workers = refine_workers;

  // Streaming knobs (DESIGN.md §14) — harmless on the in-memory path.
  refiner_config.stream.max_resident_mb = max_resident_mb;

  // Resilience knobs (DESIGN.md §10).
  refiner_config.resilience.checkpoint_path = checkpoint;
  refiner_config.resilience.resume = resume;
  refiner_config.resilience.io_retry.max_attempts =
      static_cast<std::size_t>(std::max(1, io_retries));
  refiner_config.resilience.heartbeat_timeout =
      std::chrono::milliseconds(std::max(1, heartbeat_ms));
  vmpi::FaultPlan fault_plan;
  if (kill_rank >= 0) {
    fault_plan.kill_rank_at_step(kill_rank, kill_at_step);
    std::printf("fault plan: kill rank %d after %llu refined views\n",
                kill_rank, static_cast<unsigned long long>(kill_at_step));
  }

  std::vector<em::Orientation> refined = old_orientations;
  std::vector<std::pair<double, double>> centers(views.size(), {0.0, 0.0});
  std::vector<core::ViewResult> results;

  // Out-of-core staging: persist the simulated experiment under
  // --shards DIR and refine through the streaming sharded driver.
  std::string shard_base, shard_map, shard_in, shard_out;
  if (!shards_dir.empty()) {
    std::filesystem::create_directories(shards_dir);
    shard_base = shards_dir + "/views.shards";
    shard_map = shards_dir + "/map.porm";
    shard_in = shards_dir + "/orient_old.txt";
    shard_out = shards_dir + "/orient_refined.txt";
    stream::write_sharded_stack(shard_base, views);
    io::write_map(shard_map, truth_map);
    std::vector<io::ViewOrientation> records(views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      records[i] = io::ViewOrientation{i, old_orientations[i],
                                       centers[i].first, centers[i].second};
    }
    io::write_orientations(shard_in, records,
                           "sindbis_pipeline: 3-degree-grid initials");
    std::printf("out-of-core: stack sharded under %s (max_resident_mb=%zu)\n",
                shards_dir.c_str(), max_resident_mb);
  }

  std::printf("refining on %d vmpi ranks...\n", ranks);
  obs::RunReport obs_report;
  std::uint64_t total_matchings = 0, total_slides = 0;
  std::uint64_t restored = 0, reassigned = 0, dead = 0, quarantined = 0;
  const auto report = [&] {
    auto rep = vmpi::RunReport{};
    rep = vmpi::run(ranks, fault_plan, [&](vmpi::Comm& comm) {
      auto r = shards_dir.empty()
                   ? core::parallel_refine(comm, truth_map, l, views,
                                           old_orientations, centers,
                                           refiner_config)
                   : core::parallel_refine_files(comm, shard_map, shard_base,
                                                 shard_in, shard_out,
                                                 refiner_config);
      if (comm.is_root()) {
        results = std::move(r.results);
        obs_report = std::move(r.obs);
        total_matchings = r.total_matchings;
        total_slides = r.total_slides;
        restored = r.restored_views;
        reassigned = r.reassigned_views;
        dead = r.dead_ranks;
        quarantined = r.quarantined_views;
      }
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
      refined[i] = results[i].orientation;
    }
    return rep;
  }();
  std::printf("communication: %llu messages, %.1f MB\n",
              static_cast<unsigned long long>(report.messages),
              static_cast<double>(report.bytes) / 1e6);
  std::printf("matchings: %llu, window slides: %llu\n",
              static_cast<unsigned long long>(total_matchings),
              static_cast<unsigned long long>(total_slides));
  std::printf("resilience: restored=%llu reassigned=%llu dead_ranks=%llu "
              "quarantined=%llu\n\n",
              static_cast<unsigned long long>(restored),
              static_cast<unsigned long long>(reassigned),
              static_cast<unsigned long long>(dead),
              static_cast<unsigned long long>(quarantined));
  if (!shards_dir.empty()) {
    std::printf("out-of-core: refined orientations written to %s\n\n",
                shard_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::write_text_file(metrics_out, obs_report.to_json());
    std::printf("metrics run report written to %s\n\n", metrics_out.c_str());
  }

  const auto new_error = metrics::orientation_error_stats(refined, truth, icos);
  std::printf("refined orientations: error mean=%.3f deg median=%.3f deg\n\n",
              new_error.mean, new_error.median);

  // ---- step C: maps and odd/even FSC from old vs refined poses ----
  // Both read the views the refinement read (the sharded stack under
  // --shards) and apply the same Wiener correction (refiner_config.ctf).
  std::vector<core::ViewResult> old_poses(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    old_poses[i].orientation = old_orientations[i];
  }
  core::Reconstruction old_step_c, new_step_c;
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    std::unique_ptr<stream::ViewSource> source;
    if (comm.is_root()) {
      source = shards_dir.empty()
                   ? std::make_unique<stream::MemoryViewSource>(views)
                   : stream::open_view_source(shard_base);
    }
    core::Reconstruction old_c = core::reconstruct_refined(
        comm, l, source.get(), old_poses, refiner_config);
    core::Reconstruction new_c = core::reconstruct_refined(
        comm, l, source.get(), results, refiner_config);
    if (comm.is_root()) {
      old_step_c = std::move(old_c);
      new_step_c = std::move(new_c);
    }
  });
  const metrics::FscCurve& old_curve = old_step_c.fsc;
  const metrics::FscCurve& new_curve = new_step_c.fsc;

  util::Table table({"shell radius (px)", "FSC old", "FSC new"});
  for (std::size_t s = 1; s < old_curve.correlation.size(); ++s) {
    table.add_row({util::fmt(old_curve.shell_radius[s], 1),
                   util::fmt(old_curve.correlation[s], 3),
                   util::fmt(new_curve.correlation[s], 3)});
  }
  std::printf("%s\n", table.render().c_str());

  const double old_cross = old_step_c.fsc05_px;
  const double new_cross = new_step_c.fsc05_px;
  std::printf("FSC 0.5 crossing: old %.2f px (%.1f A), new %.2f px (%.1f A)\n",
              old_cross,
              metrics::radius_to_resolution_a(old_cross, l, ctf.pixel_size_a),
              new_cross,
              metrics::radius_to_resolution_a(new_cross, l, ctf.pixel_size_a));
  std::printf("map correlation vs ground truth: old %.4f, new %.4f\n",
              metrics::volume_correlation(old_step_c.map, truth_map),
              metrics::volume_correlation(new_step_c.map, truth_map));
  const bool improved = new_cross >= old_cross && new_error.mean < old_error.mean;
  std::printf("\nsindbis pipeline %s\n", improved ? "PASSED" : "FAILED");
  return improved ? 0 : 1;
}
