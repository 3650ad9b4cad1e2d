// por/core/pipeline.hpp
//
// The iterative structure-determination loop (paper §2/§3): "Steps B
// and C are executed iteratively until the 3D electron density map
// cannot be further improved at a given resolution; then the
// resolution is increased gradually."
//
// Each cycle refines orientations against the current map, then
// reconstructs a new map from the refined orientations; resolution is
// assessed with the odd/even split + FSC 0.5 protocol of Fig. 4, and
// the matching radius r_map for the next cycle is raised toward the
// measured resolution.
#pragma once

#include <optional>
#include <vector>

#include "por/core/refiner.hpp"
#include "por/metrics/fsc.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/recon/fourier_recon.hpp"

namespace por::core {

struct PipelineConfig {
  int cycles = 3;
  RefinerConfig refiner;
  recon::ReconOptions recon;
  double pixel_size_a = 2.8;      ///< for reporting resolutions in Angstrom
  double initial_r_map = 0.0;     ///< starting matching radius (unpadded px);
                                  ///< 0 = third of Nyquist
  double r_map_growth = 1.5;      ///< per-cycle growth toward Nyquist
};

/// Everything measured in one cycle.
struct CycleReport {
  int cycle = 0;
  double r_map = 0.0;              ///< matching radius used (unpadded px)
  double fsc_radius = 0.0;         ///< odd/even FSC 0.5 crossing (Fourier px)
  double resolution_a = 0.0;       ///< same, in Angstrom
  metrics::ErrorStats orientation_error;  ///< vs truth if provided
  double mean_center_error_px = 0.0;      ///< vs truth if provided
  std::uint64_t matchings = 0;
};

/// Final state of a pipeline run.
struct PipelineResult {
  em::Volume<double> map;                      ///< final reconstruction
  std::vector<em::Orientation> orientations;   ///< final per-view angles
  std::vector<std::pair<double, double>> centers;
  std::vector<CycleReport> cycles;
};

/// Optional ground truth for error reporting.
struct GroundTruth {
  std::vector<em::Orientation> orientations;
  std::vector<std::pair<double, double>> centers;
  em::SymmetryGroup symmetry = em::SymmetryGroup::identity();
};

class RefinementPipeline {
 public:
  explicit RefinementPipeline(const PipelineConfig& config);

  /// Run `config.cycles` alternations of refine + reconstruct,
  /// starting from `initial_map` (e.g. a coarse reconstruction from
  /// the initial orientations — pass std::nullopt to build exactly
  /// that as cycle 0's map).
  [[nodiscard]] PipelineResult run(
      const std::vector<em::Image<double>>& views,
      const std::vector<em::Orientation>& initial_orientations,
      const std::optional<em::Volume<double>>& initial_map = std::nullopt,
      const std::optional<GroundTruth>& truth = std::nullopt) const;

  /// The odd/even split reconstruction + FSC of Fig. 4, exposed for
  /// the figure benches: returns the shell curve of the two half maps.
  [[nodiscard]] static metrics::FscCurve odd_even_fsc(
      const std::vector<em::Image<double>>& views,
      const std::vector<em::Orientation>& orientations,
      const std::vector<std::pair<double, double>>& centers,
      const recon::ReconOptions& options);

 private:
  PipelineConfig config_;
};

}  // namespace por::core
