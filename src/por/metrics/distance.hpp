// por/metrics/distance.hpp
//
// Distances between an experimental view's spectrum F and a calculated
// central section C (paper §3):
//
//   d(F, C) = (1/l^2) * sum_{j,k} wt(j,k) * |F_{j,k} - C_{j,k}|^2
//
// evaluated only over Fourier coefficients with radius <= r_map ("to
// determine the distance at a given resolution we use only the Fourier
// coefficients up to r_map, thus the number of operations is reduced
// accordingly"), with an optional radial weight that emphasizes high
// frequencies at high resolution.
#pragma once

#include "por/em/grid.hpp"

namespace por::metrics {

/// How the per-coefficient weight wt(j,k) is chosen.
enum class Weighting {
  kUniform,  ///< wt = 1
  kRadial,   ///< wt = radius / r_max: emphasize high-frequency detail
};

struct DistanceOptions {
  double r_max = 0.0;   ///< inclusion radius in Fourier pixels (0 = all)
  double r_min = 0.0;   ///< exclude radii below this (e.g. the DC term)
  Weighting weighting = Weighting::kUniform;
};

/// Weighted squared distance between two equally-sized centered
/// spectra, restricted to the [r_min, r_max] annulus, normalized by
/// 1/l^2.  Throws std::invalid_argument on size mismatch.
[[nodiscard]] double fourier_distance(const em::Image<em::cdouble>& f,
                                      const em::Image<em::cdouble>& c,
                                      const DistanceOptions& options);

/// Real-space normalized cross-correlation coefficient of two images
/// (zero-mean).
[[nodiscard]] double realspace_correlation(const em::Image<double>& a,
                                           const em::Image<double>& b);

}  // namespace por::metrics
