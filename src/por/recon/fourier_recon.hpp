// por/recon/fourier_recon.hpp
//
// 3D reconstruction of the electron density in Cartesian coordinates
// (the paper's step C; companion algorithm of refs [18], [20]): every
// view's centered 2D spectrum is inserted as a central section into an
// oversampled 3D Fourier accumulation grid by trilinear splatting,
// the grid is weight-normalized, and an inverse 3D DFT followed by a
// crop returns the density map.  Works for any orientation set — no
// symmetry is assumed, matching the paper's "reconstruction in
// Cartesian coordinates for objects without symmetry".
#pragma once

#include <vector>

#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/em/pad.hpp"

namespace por::recon {

struct ReconOptions {
  std::size_t pad = em::kDefaultPad;  ///< oversampling factor
  double r_max = 0.0;     ///< insertion radius in padded Fourier px (0 = auto)
  double weight_floor = 1e-3;  ///< voxels with less accumulated weight stay 0
};

/// Accumulation grids for incremental insertion; exposed so the
/// distributed driver can reduce partial sums across ranks.
struct FourierAccumulator {
  FourierAccumulator(std::size_t l, const ReconOptions& options);

  /// Insert one view: image `view` (l x l) whose particle center sits
  /// at floor(l/2) + (center_x, center_y) and whose projection
  /// orientation is `o`.
  void insert(const em::Image<double>& view, const em::Orientation& o,
              double center_x = 0.0, double center_y = 0.0);

  /// Insert an already-computed centered padded spectrum.
  void insert_spectrum(const em::Image<em::cdouble>& spectrum,
                       const em::Orientation& o);

  /// Normalize, inverse-transform and crop to the original edge l.
  [[nodiscard]] em::Volume<double> finish() const;

  /// Element-wise merge of another accumulator (for tree reductions).
  void merge(const FourierAccumulator& other);

  std::size_t l;                       ///< original (cropped) edge
  ReconOptions options;
  em::Volume<em::cdouble> values;      ///< padded sum of splatted samples
  em::Volume<double> weights;          ///< padded sum of splat weights
  std::size_t view_count = 0;
};

/// One-call reconstruction from views + orientations (+ optional
/// per-view centers, which may be empty).  `l` is the view edge.
[[nodiscard]] em::Volume<double> fourier_reconstruct(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers = {},
    const ReconOptions& options = {});

}  // namespace por::recon
