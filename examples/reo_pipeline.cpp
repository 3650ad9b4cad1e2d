// reo_pipeline — the paper's reovirus experiment on a synthetic
// double-shelled orthoreovirus-like particle, exercising the FILE-based
// distributed pipeline: the master node writes/reads map, view-stack
// and orientation files exactly as the paper's programs did (steps a.1,
// b, c, o), then iterates refinement and reconstruction.  Each cycle is
// one vmpi run: core::parallel_refine_files (step B), then
// core::reconstruct_refined (step C and the odd/even FSC) over the same
// sharded stack, leaving out any view step B quarantined.
//
//   ./reo_pipeline [--l 48] [--views 48] [--snr 2] [--ranks 4]
//                  [--workdir /tmp/por_reo] [--cycles 2]
//                  [--checkpoint true] [--resume true] [--io_retries 3]
//                  [--kill_rank R] [--kill_at_step S] [--heartbeat_ms 500]
//                  [--max_resident_mb 0]
//
// Out-of-core (DESIGN.md §14): the view stack is written as a sharded
// store under <workdir>/views.shards.* and every cycle refines through
// core::parallel_refine_files, which reads each view as it is refined
// or shipped and bounds the master's resident view cache to
// --max_resident_mb (0 = unbounded).
//
// Resilience (DESIGN.md §10): --checkpoint true records every refined
// view of each cycle to <workdir>/ckpt_cycle_<n>.porc; with --resume
// true an interrupted cycle restores those views instead of refining
// them again.  --io_retries N retries transient master-side file reads
// with capped exponential backoff.  --kill_rank R kills that worker
// rank after --kill_at_step refined views in every cycle; the heartbeat
// detector reassigns its views and the output files are
// bitwise-identical to a fault-free run.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "por/core/parallel_refiner.hpp"
#include "por/core/pipeline.hpp"
#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/cli.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"

using namespace por;
namespace fs = std::filesystem;

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: reo_pipeline [--l 48] [--views 48] [--snr 2] [--ranks 4]\n\n    [--cycles 2] [--workdir /tmp/por_reo] [--checkpoint true] [--resume true]\n\n    [--io_retries 1] [--kill_rank R --kill_at_step N] [--heartbeat_ms 500]\n\n    [--max_resident_mb 0]\n\n"
        "Environment:\n  POR_FORCE_ISA=sse2|avx2|avx512   pin the SIMD tier of the matching\n                                   kernels (default: best the CPU has;\n                                   clamped to what is available)\n");
    return 0;
  }
  const std::size_t l = cli.get_int("l", 48);
  const int view_count = static_cast<int>(cli.get_int("views", 48));
  const double snr = cli.get_double("snr", 2.0);
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const int cycles = static_cast<int>(cli.get_int("cycles", 2));
  const std::string workdir = cli.get("workdir", "/tmp/por_reo");
  const bool use_checkpoint = cli.get_bool("checkpoint", false);
  const bool resume = cli.get_bool("resume", false);
  const int io_retries = static_cast<int>(cli.get_int("io_retries", 1));
  const int kill_rank = static_cast<int>(cli.get_int("kill_rank", -1));
  const std::uint64_t kill_at_step =
      static_cast<std::uint64_t>(cli.get_int("kill_at_step", 0));
  const int heartbeat_ms = static_cast<int>(cli.get_int("heartbeat_ms", 500));
  const std::size_t max_resident_mb =
      static_cast<std::size_t>(cli.get_int("max_resident_mb", 0));
  cli.assert_all_consumed();

  fs::create_directories(workdir);
  std::printf("reo-like pipeline: l=%zu views=%d snr=%.1f ranks=%d cycles=%d\n"
              "work files in %s\n\n",
              l, view_count, snr, ranks, cycles, workdir.c_str());

  em::PhantomSpec spec;
  spec.l = l;
  const em::BlobModel particle = em::make_reo_like(spec);
  const em::Volume<double> truth_map = particle.rasterize(l);
  const auto icos = em::SymmetryGroup::icosahedral();

  // ---- simulate views and initial orientations, write input files ----
  util::Rng rng(811);
  std::vector<em::Image<double>> views;
  std::vector<em::Orientation> truth;
  std::vector<em::Orientation> current;  // 3-degree initials, then refined
  std::vector<io::ViewOrientation> initial_records;
  for (int i = 0; i < view_count; ++i) {
    double theta, phi;
    rng.sphere_point(theta, phi);
    const em::Orientation o{em::rad2deg(theta), em::rad2deg(phi),
                            rng.uniform(0.0, 360.0)};
    em::Image<double> view = particle.project_analytic(l, o);
    em::add_gaussian_noise(view, snr, rng);
    views.push_back(std::move(view));
    truth.push_back(o);
    // Rough initial orientation: truth quantized to a 3-degree grid,
    // the "rough estimation ... say at 3 degrees" of the paper.
    auto quantize = [](double deg) { return 3.0 * std::round(deg / 3.0); };
    current.push_back(
        em::Orientation{quantize(o.theta), quantize(o.phi), quantize(o.omega)});
    initial_records.push_back(io::ViewOrientation{
        static_cast<std::size_t>(i), current.back(), 0.0, 0.0});
  }
  const auto initial_error = metrics::orientation_error_stats(current, truth,
                                                              icos);
  const std::string stack_path = workdir + "/views.shards";
  const std::string orient_path = workdir + "/orient_0.txt";
  stream::write_sharded_stack(stack_path, views);
  std::printf("out-of-core: stack sharded at %s (max_resident_mb=%zu)\n\n",
              stack_path.c_str(), max_resident_mb);
  io::write_orientations(orient_path, initial_records, "3-degree quantized");

  // ---- iterate: refine against current map, reconstruct, repeat ----
  core::RefinerConfig refiner_config;
  refiner_config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                             core::SearchLevel{0.25, 5, 0.25, 3},
                             core::SearchLevel{0.05, 5, 0.05, 3}};
  refiner_config.match.r_map = static_cast<double>(l) / 2.0 - 4.0;
  refiner_config.refine_centers = false;

  // Streaming knobs (DESIGN.md §14).
  refiner_config.stream.max_resident_mb = max_resident_mb;

  // Resilience knobs (DESIGN.md §10).
  refiner_config.resilience.resume = resume;
  refiner_config.resilience.io_retry.max_attempts =
      static_cast<std::size_t>(std::max(1, io_retries));
  refiner_config.resilience.heartbeat_timeout =
      std::chrono::milliseconds(std::max(1, heartbeat_ms));
  vmpi::FaultPlan fault_plan;
  if (kill_rank >= 0) {
    fault_plan.kill_rank_at_step(kill_rank, kill_at_step);
    std::printf("fault plan: kill rank %d after %llu refined views per "
                "cycle\n",
                kill_rank, static_cast<unsigned long long>(kill_at_step));
  }

  // Step C over the stack at the given poses; root keeps the map.
  stream::ShardedStackOptions read_options;
  read_options.max_resident_bytes = max_resident_mb * (std::size_t{1} << 20);
  const auto reconstruct = [&](vmpi::Comm& comm,
                               const std::vector<core::ViewResult>& poses) {
    std::unique_ptr<stream::ViewSource> source;
    if (comm.is_root()) {
      source = stream::open_view_source(stack_path, read_options);
    }
    return core::reconstruct_refined(comm, l, source.get(), poses,
                                     refiner_config);
  };

  // Cycle 0 map: reconstruct from the quantized orientations.
  std::vector<core::ViewResult> poses(view_count);
  for (int i = 0; i < view_count; ++i) poses[i].orientation = current[i];
  em::Volume<double> map;
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    core::Reconstruction next = reconstruct(comm, poses);
    if (comm.is_root()) map = std::move(next.map);
  });
  io::write_map(workdir + "/map_0.porm", map);

  for (int cycle = 1; cycle <= cycles; ++cycle) {
    const std::string map_in = workdir + "/map_" + std::to_string(cycle - 1) +
                               ".porm";
    const std::string orient_in =
        workdir + "/orient_" + std::to_string(cycle - 1) + ".txt";
    const std::string orient_out =
        workdir + "/orient_" + std::to_string(cycle) + ".txt";

    refiner_config.resilience.checkpoint_path =
        use_checkpoint
            ? workdir + "/ckpt_cycle_" + std::to_string(cycle) + ".porc"
            : std::string();

    std::uint64_t restored = 0, reassigned = 0, dead = 0, quarantined = 0;
    double crossing = 0.0;
    vmpi::run(ranks, fault_plan, [&](vmpi::Comm& comm) {
      core::ParallelRefineReport r = core::parallel_refine_files(
          comm, map_in, stack_path, orient_in, orient_out, refiner_config);
      core::Reconstruction next = reconstruct(comm, r.results);
      if (comm.is_root()) {
        restored = r.restored_views;
        reassigned = r.reassigned_views;
        dead = r.dead_ranks;
        quarantined = r.quarantined_views;
        poses = std::move(r.results);
        map = std::move(next.map);
        crossing = next.fsc05_px;
      }
    });
    if (restored + reassigned + dead + quarantined > 0) {
      std::printf("cycle %d resilience: restored=%llu reassigned=%llu "
                  "dead_ranks=%llu quarantined=%llu\n",
                  cycle, static_cast<unsigned long long>(restored),
                  static_cast<unsigned long long>(reassigned),
                  static_cast<unsigned long long>(dead),
                  static_cast<unsigned long long>(quarantined));
    }
    for (int i = 0; i < view_count; ++i) current[i] = poses[i].orientation;
    io::write_map(workdir + "/map_" + std::to_string(cycle) + ".porm", map);

    const auto error = metrics::orientation_error_stats(current, truth, icos);
    std::printf("cycle %d: orientation error mean=%.3f deg, FSC(0.5) radius "
                "%.2f px (%.1f A), map cc vs truth %.4f\n",
                cycle, error.mean, crossing,
                metrics::radius_to_resolution_a(crossing, l, 2.8),
                metrics::volume_correlation(map, truth_map));
  }

  const auto final_error = metrics::orientation_error_stats(current, truth, icos);
  std::printf("\norientation error: initial mean %.3f deg -> final mean %.3f "
              "deg\n",
              initial_error.mean, final_error.mean);
  const bool improved = final_error.mean < initial_error.mean;
  std::printf("reo pipeline %s\n", improved ? "PASSED" : "FAILED");
  return improved ? 0 : 1;
}
