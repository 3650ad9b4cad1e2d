// por/core/pipeline.hpp
//
// The iterative structure-determination loop (paper §2/§3): "Steps B
// and C are executed iteratively until the 3D electron density map
// cannot be further improved at a given resolution; then the
// resolution is increased gradually."
//
// Each cycle refines orientations against the current map (step B,
// core::parallel_refine), then reconstructs a new map from the refined
// orientations (step C: reconstruct_refined below, the one place step C
// runs); resolution is assessed with the odd/even split + FSC 0.5
// protocol of Fig. 4, and the matching radius r_map for the next cycle
// is raised toward the measured resolution.
#pragma once

#include <optional>
#include <vector>

#include "por/core/refiner.hpp"
#include "por/metrics/fsc.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/recon/fourier_recon.hpp"
#include "por/vmpi/comm.hpp"

namespace por::core {

/// What step C hands the next cycle.
struct Reconstruction {
  /// The map from every kept view, identical on every rank.
  em::Volume<double> map;
  /// Shell correlation of the odd and the even half map, and where it
  /// crosses 0.5 (Fourier px).  Root only.
  metrics::FscCurve fsc;
  double fsc05_px = 0.0;
};

/// Step C, an SPMD collective.  Root passes the view stack and one record
/// of step B per view; no other rank's source or records are read.  `l`
/// is the view edge.  Views whose record has quarantined != 0 stay out
/// of all three maps.  Every rank takes its block (io::block_begin /
/// block_share) of the kept views, which root re-reads and ships (as the
/// paper's P3DR re-read the stack), applies step (e) as
/// config.matcher_options() sets it up (CTF correction, mode, Wiener
/// SNR), and runs recon::parallel_fourier_reconstruct over all its
/// views, those with an odd global index and those with an even one.
/// Root correlates the two half maps.
///
/// Root checks its inputs (a source, one record per view, l x l views)
/// before the first collective, and every rank checks that each half
/// set keeps a view; on failure every rank throws std::invalid_argument.
[[nodiscard]] Reconstruction reconstruct_refined(
    vmpi::Comm& comm, std::size_t l, stream::ViewSource* source_on_root,
    const std::vector<ViewResult>& poses_on_root, const RefinerConfig& config,
    const recon::ReconOptions& recon_options = {});

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
  /// that as cycle 0's map).  Runs on one vmpi rank through the
  /// distributed drivers: parallel_refine for step B, then
  /// reconstruct_refined for step C and the odd/even FSC, so a view
  /// step B quarantines stays out of the map.  Cycle 0 leaves out views
  /// with non-finite pixels, which step B would quarantine.
  [[nodiscard]] PipelineResult run(
      const std::vector<em::Image<double>>& views,
      const std::vector<em::Orientation>& initial_orientations,
      const std::optional<em::Volume<double>>& initial_map = std::nullopt,
      const std::optional<GroundTruth>& truth = std::nullopt) const;

 private:
  PipelineConfig config_;
};

}  // namespace por::core
