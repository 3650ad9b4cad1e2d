// scaling_ranks — the parallel-design numbers of §4/§6.
//
// The paper's key decision: replicate the (padded) 3D DFT on every
// node via the slab-parallel transform + all-gather so that matching
// needs NO further communication, instead of a shared-virtual-memory
// scheme that ships bricks on demand.  The transform here is pruned to
// what matching reads: the scatter carries the unpadded map, the
// global exchange only the r_map ball's columns of each plane, and the
// all-gather only the ball.  Wall-clock speedup needs one core per
// rank, so the bench reports what a wire would carry — bytes and
// messages as the rank count grows, including one that divides
// neither the map nor the ball — plus per-rank matching counts to show
// the embarrassingly parallel load balance of the view partition.

#include <cstdio>

#include "bench_helpers.hpp"
#include "por/core/matcher.hpp"
#include "por/core/parallel_refiner.hpp"
#include "por/io/master_io.hpp"
#include "por/util/table.hpp"
#include "por/vmpi/runtime.hpp"

using namespace por;

int main() {
  std::printf("scaling_ranks: communication volume and load balance of the "
              "distributed refinement, P = 1..8 vmpi ranks\n\n");

  bench::WorkloadSpec spec;
  spec.l = 32;
  spec.view_count = 24;
  spec.snr = 8.0;
  spec.quantize_deg = 2.0;
  spec.seed = 555;
  bench::Workload w = bench::asymmetric_workload(spec);

  core::RefinerConfig config;
  config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                     core::SearchLevel{0.25, 5, 0.25, 3}};
  config.match.r_map = 12.0;
  config.refine_centers = false;

  const std::vector<std::pair<double, double>> centers(w.views.size(),
                                                       {0.0, 0.0});
  const double volume_mb =
      static_cast<double>(w.l * config.match.pad) *
      static_cast<double>(w.l * config.match.pad) *
      static_cast<double>(w.l * config.match.pad) * 16.0 / 1e6;
  const std::size_t ball_edge =
      core::FourierMatcher::ball(w.l, config.match).edge;
  const double ball_mb = static_cast<double>(ball_edge) *
                         static_cast<double>(ball_edge) *
                         static_cast<double>(ball_edge) * 16.0 / 1e6;

  util::Table table({"P", "messages", "bytes (MB)", "bytes / padded volume",
                     "views/rank (min..max)", "matchings total"});
  for (int p : {1, 2, 3, 4, 8}) {
    core::ParallelRefineReport report;
    const vmpi::RunReport run_report = vmpi::run(p, [&](vmpi::Comm& comm) {
      auto r = core::parallel_refine(comm, w.map, w.l, w.views, w.initial,
                                     centers, config);
      if (comm.is_root()) report = std::move(r);
    });
    const std::size_t lo = io::block_share(w.views.size(), p, p - 1);
    const std::size_t hi = io::block_share(w.views.size(), p, 0);
    table.add_row(
        {std::to_string(p),
         util::fmt_grouped(static_cast<long long>(run_report.messages)),
         util::fmt(static_cast<double>(run_report.bytes) / 1e6, 1),
         util::fmt(static_cast<double>(run_report.bytes) / 1e6 / volume_mb, 2),
         std::to_string(lo) + ".." + std::to_string(hi),
         util::fmt_grouped(static_cast<long long>(report.total_matchings))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "replicated r_map ball: %.1f MB per rank of the %.1f MB padded\n"
      "volume (the space the paper trades for communication-free\n"
      "matching).  Bytes grow ~linearly with P because of the all-gather\n"
      "replication (ring: each rank forwards P-1 blocks); the scatter of\n"
      "the unpadded map and the exchange of ball columns stay small,\n"
      "and matching itself sends NOTHING —\n"
      "the paper's \"embarrassingly parallel\" phase.\n",
      ball_mb, volume_mb);

  // On-demand alternative for comparison (§6): each matching would
  // fetch the cut's support from remote bricks; a w-cut search of m
  // views would move ~matchings * slice bytes.
  const double slice_mb = static_cast<double>(w.l * config.match.pad) *
                          static_cast<double>(w.l * config.match.pad) * 16.0 /
                          1e6;
  std::printf(
      "\nshared-virtual-memory alternative (paper §6): shipping one padded\n"
      "slice per matching would move ~%.2f MB x matchings; with the\n"
      "matching counts above that is orders of magnitude more traffic\n"
      "than one-time replication — the paper's trade-off, quantified.\n",
      slice_mb);
  return 0;
}
