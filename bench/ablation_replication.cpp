// ablation_replication — puts numbers on the paper's central parallel-
// design decision (§6): "we choose to replicate the electron density
// map and its 3D DFT on every node because we wanted to reduce the
// communication costs.  The alternative is to implement a shared
// virtual memory where 3D bricks of the electron density or its DFT
// are brought on demand."
//
// Both designs are implemented for real: the replicated FourierMatcher
// (one bcast of the spectrum's r_map ball — the only part of the
// padded spectrum a matching reads — then communication-free
// matching) and the demand-paged SvmMatcher over a BrickStore (small
// resident set, per-miss brick fetches through a live server thread
// per rank).  The bench runs the identical matching workload through
// both and reports bytes, messages and memory footprint.

#include <cstdio>

#include "bench_helpers.hpp"
#include "por/core/brick_store.hpp"
#include "por/core/matcher.hpp"
#include "por/core/search_domain.hpp"
#include "por/core/svm_matcher.hpp"
#include "por/em/pad.hpp"
#include "por/em/projection.hpp"
#include "por/io/master_io.hpp"
#include "por/util/table.hpp"
#include "por/vmpi/runtime.hpp"

using namespace por;

int main() {
  std::printf("ablation_replication: replicated 3D DFT vs shared-virtual-"
              "memory brick store (paper §6)\n\n");

  bench::WorkloadSpec spec;
  spec.l = 32;
  spec.view_count = 12;
  spec.snr = 0.0;
  spec.quantize_deg = 1.0;
  spec.seed = 777;
  bench::Workload w = bench::asymmetric_workload(spec);

  core::MatchOptions options;
  options.r_map = 12.0;
  const std::size_t big = w.l * options.pad;
  const em::Volume<double> padded = em::pad_volume(w.map, options.pad);
  const em::Volume<em::cdouble> spectrum = em::centered_fft3(padded);
  const fft::CubeCrop ball = core::FourierMatcher::ball(w.l, options);
  const em::Volume<em::cdouble> ball_spectrum =
      em::centered_fft3(padded, ball);
  const double ball_mb =
      static_cast<double>(ball_spectrum.size()) * 16.0 / 1e6;

  // Each rank searches a 5^3 grid around its views' initial
  // orientations — one level-2 window of the schedule.
  const int grid_width = 5;
  const double grid_step = 0.25;

  util::Table table({"design", "P", "setup MB", "matching MB",
                     "resident MB/rank", "messages", "matchings"});

  for (int p : {2, 4}) {
    // ---- design A: replication ----
    {
      std::uint64_t matchings = 0;
      const vmpi::RunReport report = vmpi::run(p, [&](vmpi::Comm& comm) {
        // Replicate: root broadcasts the spectrum's r_map ball.
        std::vector<em::cdouble> flat = comm.is_root()
                                            ? ball_spectrum.storage()
                                            : std::vector<em::cdouble>{};
        comm.bcast(0, flat);
        em::Volume<em::cdouble> mine(ball.edge);
        mine.storage() = std::move(flat);
        const core::FourierMatcher matcher(std::move(mine), w.l, options);
        // Match my block of views (communication-free).
        const std::size_t begin =
            io::block_begin(w.views.size(), p, comm.rank());
        const std::size_t share =
            io::block_share(w.views.size(), p, comm.rank());
        for (std::size_t i = begin; i < begin + share; ++i) {
          const auto vs = matcher.prepare_view(w.views[i]);
          const core::SearchDomain domain{w.initial[i], grid_step, grid_width};
          for (const auto& o : domain.enumerate()) {
            (void)matcher.distance(vs, o);
          }
        }
        const std::uint64_t mine_count = matcher.matchings();
        matchings += comm.allreduce_value(mine_count, vmpi::ReduceOp::kSum) *
                     (comm.is_root() ? 1 : 0);
      });
      table.add_row({"replicated", std::to_string(p),
                     util::fmt(static_cast<double>(report.bytes) / 1e6, 1),
                     "0.0", util::fmt(ball_mb, 1),
                     util::fmt_grouped(static_cast<long long>(report.messages)),
                     util::fmt_grouped(static_cast<long long>(matchings))});
    }

    // ---- design B: shared virtual memory (brick store) ----
    for (std::size_t cache_bricks : {32u, 256u}) {
      std::uint64_t setup_bytes = 0, total_bytes = 0, messages = 0;
      std::uint64_t matchings = 0;
      double resident_mb = 0.0;
      const vmpi::RunReport report = vmpi::run(p, [&](vmpi::Comm& comm) {
        core::BrickStoreConfig config;
        config.brick_edge = 8;
        config.cache_bricks = cache_bricks;
        const std::uint64_t before_setup = comm.traffic().bytes();
        core::BrickStore store(
            comm, comm.is_root() ? spectrum : em::Volume<em::cdouble>{}, big,
            config);
        const std::uint64_t after_setup = comm.traffic().bytes();
        store.start_server();
        core::SvmMatcher matcher(store, w.l, options);
        // Views are prepared against a throwaway replicated matcher so
        // both designs run the identical matching workload.
        const core::FourierMatcher prep(w.map, options);
        const std::size_t begin =
            io::block_begin(w.views.size(), p, comm.rank());
        const std::size_t share =
            io::block_share(w.views.size(), p, comm.rank());
        for (std::size_t i = begin; i < begin + share; ++i) {
          const auto vs = prep.prepare_view(w.views[i]);
          const core::SearchDomain domain{w.initial[i], grid_step, grid_width};
          for (const auto& o : domain.enumerate()) {
            (void)matcher.distance(vs, o);
          }
        }
        store.stop_server();
        if (comm.is_root()) {
          setup_bytes = after_setup - before_setup;
          const double bricks_resident =
              static_cast<double>(spectrum.size()) /
                  static_cast<double>(p) +
              static_cast<double>(cache_bricks) * 8.0 * 8.0 * 8.0;
          resident_mb = bricks_resident * 16.0 / 1e6;
        }
        matchings +=
            comm.allreduce_value(matcher.matchings(), vmpi::ReduceOp::kSum) *
            (comm.is_root() ? 1 : 0);
      });
      total_bytes = report.bytes;
      messages = report.messages;
      table.add_row(
          {"brick store (cache " + std::to_string(cache_bricks) + ")",
           std::to_string(p),
           util::fmt(static_cast<double>(setup_bytes) / 1e6, 1),
           util::fmt(static_cast<double>(total_bytes - setup_bytes) / 1e6, 1),
           util::fmt(resident_mb, 1),
           util::fmt_grouped(static_cast<long long>(messages)),
           util::fmt_grouped(static_cast<long long>(matchings))});
    }
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "shape: replication pays ~(P-1) x %.1f MB (the r_map ball of the\n"
      "%.1f MB padded spectrum) ONCE and then matches for free; the brick\n"
      "store keeps only 1/P of the volume (+cache) per rank but keeps\n"
      "paying per matching — with thousands of matchings per view\n"
      "(Tables 1/2) the paper's choice of replication follows.  The brick\n"
      "store wins only when memory, not communication, is the binding\n"
      "constraint (the paper's TByte-scale discussion in §3).\n",
      ball_mb, static_cast<double>(spectrum.size()) * 16.0 / 1e6);
  return 0;
}
