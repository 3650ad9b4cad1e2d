// por/core/parallel_pipeline.hpp
//
// One full distributed structure-determination cycle: Step B
// (parallel_refine, steps a-o) followed by Step C (the vmpi-parallel
// Fourier reconstruction), as the paper ran them back to back on the
// SP2 — "The execution time for 3D reconstruction for the Sindbis
// virus is 4,575 seconds ... The 3D reconstruction time represents
// less than 5% of the total time per cycle."
#pragma once

#include "por/core/parallel_refiner.hpp"
#include "por/recon/parallel_recon.hpp"

namespace por::core {

struct ParallelCycleReport {
  ParallelRefineReport refine;     ///< step-B report (matchings, obs spans)
  double reconstruction_seconds = 0.0;  ///< step-C wall time (max over ranks)
  /// Refined per-view records in global order (root only).
  std::vector<ViewResult> results;
  /// The new map, complete and identical on EVERY rank (replication,
  /// ready for the next cycle's step a).
  em::Volume<double> map;
};

/// SPMD collective: refine all views against `map_on_root`, then
/// reconstruct the next map from the refined orientations/centers.
[[nodiscard]] ParallelCycleReport parallel_cycle(
    vmpi::Comm& comm, const em::Volume<double>& map_on_root, std::size_t l,
    const std::vector<em::Image<double>>& views_on_root,
    const std::vector<em::Orientation>& initial_on_root,
    const std::vector<std::pair<double, double>>& centers_on_root,
    const RefinerConfig& refiner_config,
    const recon::ReconOptions& recon_options = {});

}  // namespace por::core
