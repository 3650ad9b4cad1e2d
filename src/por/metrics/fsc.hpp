// por/metrics/fsc.hpp
//
// Resolution assessment by the paper's odd/even protocol (Fig. 4):
// after refinement, reconstruct one map from the odd-numbered views
// and one from the even-numbered views, then plot the correlation
// coefficient of the two maps shell-by-shell in the Fourier domain and
// read off where the curve drops below 0.5 — "a correlation
// coefficient higher than 0.5 gives a conservative estimate of the
// final resolution of the entire density map."
#pragma once

#include <vector>

#include "por/em/grid.hpp"

namespace por::metrics {

/// One shell-correlation curve.
struct FscCurve {
  std::vector<double> shell_radius;  ///< mean radius per shell (Fourier px)
  std::vector<double> correlation;   ///< shell correlation in [-1, 1]
};

/// Fourier shell correlation of two equally-sized real volumes.
/// Shells are 1 Fourier-pixel wide up to the Nyquist radius.  Computed
/// from the r2c half spectra (fft::rfft3d_half); each column kx > 0
/// also counts for its Hermitian mirror -kx.
[[nodiscard]] FscCurve fourier_shell_correlation(const em::Volume<double>& a,
                                                 const em::Volume<double>& b);

/// First radius at which the curve crosses below `threshold`
/// (linearly interpolated between shells).  Returns the largest shell
/// radius if the curve never drops below the threshold.
[[nodiscard]] double crossing_radius(const FscCurve& curve,
                                     double threshold = 0.5);

/// Convert a Fourier-shell radius to a resolution in Angstrom for an
/// l-voxel box with the given pixel size:  resolution = l * pixel / r.
[[nodiscard]] double radius_to_resolution_a(double radius, std::size_t l,
                                            double pixel_size_a);

/// Global real-space correlation coefficient of two volumes (zero
/// mean), the scalar used when comparing a reconstruction against the
/// ground-truth phantom map.
[[nodiscard]] double volume_correlation(const em::Volume<double>& a,
                                        const em::Volume<double>& b);

}  // namespace por::metrics
