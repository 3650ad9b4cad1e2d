// por/em/pad.hpp
//
// Zero-padding (oversampling) helpers.
//
// Central sections are cut out of the 3D DFT by trilinear
// interpolation (paper step f).  The spectrum of an object that fills
// its box varies on the scale of ONE Fourier sample, which linear
// interpolation cannot follow; embedding the particle in a box
// `factor` times larger first spreads the same information over
// `factor` times more samples and makes the interpolation accurate
// (the standard oversampling trick of Fourier-space EM packages).
// All Fourier-domain matching and reconstruction in this library works
// at a pad factor of kDefaultPad unless stated otherwise.
#pragma once

#include <cstddef>

#include "por/em/grid.hpp"

namespace por::em {

inline constexpr std::size_t kDefaultPad = 2;

/// Embed `img` centered in an (l*factor)^2 zero field, where l is the
/// input edge.  The particle center voxel floor(l/2) lands exactly on
/// the padded center voxel floor(L/2).
[[nodiscard]] Image<double> pad_image(const Image<double>& img,
                                      std::size_t factor = kDefaultPad);

/// Embed `vol` centered in an (l*factor)^3 zero field.
[[nodiscard]] Volume<double> pad_volume(const Volume<double>& vol,
                                        std::size_t factor = kDefaultPad);

/// Cut the centered l^3 brick back out of a padded volume.
[[nodiscard]] Volume<double> crop_volume(const Volume<double>& padded,
                                         std::size_t l);

}  // namespace por::em
