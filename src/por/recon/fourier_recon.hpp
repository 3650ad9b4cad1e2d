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
//
// The views are real, so their spectra and the grid are Hermitian:
// the accumulator stores only the kx >= 0 half and the inverse ends in
// a complex-to-real transform along x (DESIGN.md, step C).
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

/// One cell of the accumulation grid: the sum of the samples splatted
/// onto it and the sum of their weights.  Value and weight sit side by
/// side, so a splat touches one cache line per cell and the
/// reduce-scatter ships cells as they are stored.
struct GridCell {
  em::cdouble value{0.0, 0.0};
  double weight = 0.0;
};

/// Accumulation grid for incremental insertion; exposed so the
/// distributed driver can reduce partial sums across ranks.
///
/// The padded grid has edge n = l * pad, centered: index i of the z
/// and y axes is frequency i - floor(n/2).  Only kx = 0..floor(n/2) is
/// stored (x index = kx), so `cells` is n x n x (floor(n/2) + 1).  The
/// missing half is the conjugate mirror of the stored one.
struct FourierAccumulator {
  FourierAccumulator(std::size_t l, const ReconOptions& options);

  /// Insert one view: image `view` (l x l) whose particle center sits
  /// at floor(l/2) + (center_x, center_y) and whose projection
  /// orientation is `o`.  Splats the half plane ku > 0 (plus ku = 0,
  /// kv > 0 and half the DC sample); each trilinear contribution lands
  /// on its cell if that cell is stored and, conjugated, on the mirror
  /// cell if that one is.  The stored half then equals the full grid's.
  void insert(const em::Image<double>& view, const em::Orientation& o,
              double center_x = 0.0, double center_y = 0.0);

  /// Normalize, inverse-transform and crop to the original edge l: the
  /// one-rank case of finish_slab (parallel_recon.hpp).
  [[nodiscard]] em::Volume<double> finish() const;

  std::size_t l;                  ///< original (cropped) edge
  ReconOptions options;
  em::Volume<GridCell> cells;     ///< the kx >= 0 half of the padded grid
};

/// One-call reconstruction from views + orientations (+ optional
/// per-view centers, which may be empty).  `l` is the view edge.
[[nodiscard]] em::Volume<double> fourier_reconstruct(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers = {},
    const ReconOptions& options = {});

}  // namespace por::recon
