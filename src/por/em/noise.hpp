// por/em/noise.hpp
//
// Noise model for the simulated microscope.  Cryo-EM views are
// extremely noisy (shot noise + solvent); the reproduction adds white
// Gaussian noise calibrated to a target signal-to-noise ratio so that
// the "less sensitive to noise" claim of the Fourier-space matcher can
// be tested quantitatively (bench: ablation_noise).
#pragma once

#include "por/em/grid.hpp"
#include "por/util/rng.hpp"

namespace por::em {

/// Variance of the pixel values about their mean.
[[nodiscard]] double image_variance(const Image<double>& img);

/// Add white Gaussian noise so that var(signal)/var(noise) == snr.
/// A non-positive or infinite snr leaves the image untouched.
void add_gaussian_noise(Image<double>& img, double snr, util::Rng& rng);

}  // namespace por::em
