#include "por/core/parallel_pipeline.hpp"

#include "por/io/master_io.hpp"
#include "por/util/timer.hpp"

namespace por::core {

ParallelCycleReport parallel_cycle(
    vmpi::Comm& comm, const em::Volume<double>& map_on_root, std::size_t l,
    const std::vector<em::Image<double>>& views_on_root,
    const std::vector<em::Orientation>& initial_on_root,
    const std::vector<std::pair<double, double>>& centers_on_root,
    const RefinerConfig& refiner_config,
    const recon::ReconOptions& recon_options) {
  ParallelCycleReport report;

  // ---- Step B ----
  report.refine = parallel_refine(comm, map_on_root, l, views_on_root,
                                  initial_on_root, centers_on_root,
                                  refiner_config);

  // Root broadcasts the refined records so every rank can rebuild its
  // own view block for the reconstruction.
  std::vector<ViewResult> all = report.refine.results;
  comm.bcast(0, all);
  if (comm.is_root()) report.results = all;

  // ---- Step C: every rank reconstructs with its block of views ----
  util::WallTimer recon_timer;

  // Quarantined views (DESIGN.md §10) carry their *initial* parameters
  // and a non-zero flag: they must not pollute the reconstruction.
  // Every rank derives the same kept-index list from the broadcast
  // records, so the block partition below agrees across ranks.
  std::vector<std::size_t> kept;
  kept.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].quarantined == 0) kept.push_back(i);
  }
  const std::size_t total = kept.size();
  const std::size_t begin = io::block_begin(total, comm.size(), comm.rank());
  const std::size_t share = io::block_share(total, comm.size(), comm.rank());

  // Ranks other than root need their views again; the refine step
  // already shipped them once, but it does not retain them, so the
  // master re-distributes the blocks (this is the paper's model too:
  // P3DR is a separate program that re-reads the stack).
  std::vector<em::Image<double>> my_views;
  constexpr vmpi::Tag kReconViewsTag = 400;
  if (comm.is_root()) {
    for (int r = comm.size() - 1; r >= 0; --r) {
      const std::size_t rb = io::block_begin(total, comm.size(), r);
      const std::size_t rs = io::block_share(total, comm.size(), r);
      if (r == 0) {
        my_views.reserve(rs);
        for (std::size_t i = rb; i < rb + rs; ++i) {
          my_views.push_back(views_on_root[kept[i]]);
        }
      } else {
        std::vector<double> flat;
        flat.reserve(rs * l * l);
        for (std::size_t i = rb; i < rb + rs; ++i) {
          flat.insert(flat.end(), views_on_root[kept[i]].storage().begin(),
                      views_on_root[kept[i]].storage().end());
        }
        comm.send(r, kReconViewsTag, flat);
      }
    }
  } else {
    const auto flat = comm.recv<double>(0, kReconViewsTag);
    my_views.reserve(share);
    for (std::size_t i = 0; i < share; ++i) {
      em::Image<double> img(l, l);
      std::copy(flat.begin() + i * l * l, flat.begin() + (i + 1) * l * l,
                img.storage().begin());
      my_views.push_back(std::move(img));
    }
  }

  std::vector<em::Orientation> my_orientations;
  std::vector<std::pair<double, double>> my_centers;
  for (std::size_t i = begin; i < begin + share; ++i) {
    my_orientations.push_back(all[kept[i]].orientation);
    my_centers.emplace_back(all[kept[i]].center_x, all[kept[i]].center_y);
  }
  report.map = recon::parallel_fourier_reconstruct(
      comm, l, my_views, my_orientations, my_centers, recon_options);
  const double my_seconds = recon_timer.seconds();
  report.reconstruction_seconds =
      comm.allreduce_value(my_seconds, vmpi::ReduceOp::kMax);
  return report;
}

}  // namespace por::core
