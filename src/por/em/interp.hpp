// por/em/interp.hpp
//
// Bilinear / trilinear interpolation on complex lattices, used to cut
// central sections through the 3D DFT (paper step f: "construct a set
// of 2D-cuts of the 3D-DFT of the electron density map by interpolation
// in the 3D Fourier domain").  Samples outside the lattice are zero —
// consistent with truncating the transform at the resolution sphere.
#pragma once

#include <cmath>

#include "por/em/grid.hpp"

namespace por::em {

/// Bilinear sample of `img` at fractional position (y, x); zero outside.
[[nodiscard]] inline cdouble interp_bilinear(const Image<cdouble>& img,
                                             double y, double x) {
  const double fy = std::floor(y), fx = std::floor(x);
  const long iy = static_cast<long>(fy), ix = static_cast<long>(fx);
  const double ty = y - fy, tx = x - fx;
  const long ny = static_cast<long>(img.ny()), nx = static_cast<long>(img.nx());

  auto sample = [&](long yy, long xx) -> cdouble {
    if (yy < 0 || yy >= ny || xx < 0 || xx >= nx) return {0.0, 0.0};
    return img(static_cast<std::size_t>(yy), static_cast<std::size_t>(xx));
  };

  const cdouble c00 = sample(iy, ix), c01 = sample(iy, ix + 1);
  const cdouble c10 = sample(iy + 1, ix), c11 = sample(iy + 1, ix + 1);
  return (1.0 - ty) * ((1.0 - tx) * c00 + tx * c01) +
         ty * ((1.0 - tx) * c10 + tx * c11);
}

/// Trilinear sample at fractional position (z, y, x) over any complex
/// cell source: `cell(iz, iy, ix)` returns the sample at integer cell
/// coordinates (which may lie outside the source; the source decides
/// what lives there).  Zero-weight corners are never fetched.  The one
/// reference arithmetic behind interp_trilinear and the matcher's
/// reads of its cropped spectrum ball.
template <typename Cell>
[[nodiscard]] inline cdouble interp_trilinear_with(double z, double y,
                                                   double x, const Cell& cell) {
  const double fz = std::floor(z), fy = std::floor(y), fx = std::floor(x);
  const long iz = static_cast<long>(fz), iy = static_cast<long>(fy),
             ix = static_cast<long>(fx);
  const double tz = z - fz, ty = y - fy, tx = x - fx;

  cdouble acc{0.0, 0.0};
  for (int dz = 0; dz < 2; ++dz) {
    const double wz = dz ? tz : 1.0 - tz;
    // por-lint: allow(float-eq) exact-zero weight skip: t and 1-t are
    // exactly 0.0 on lattice points, and skipping a zero term is a
    // bit-exact no-op.  Same for the two loops below.
    if (wz == 0.0) continue;  // por-lint: allow(float-eq) see above
    for (int dy = 0; dy < 2; ++dy) {
      const double wy = dy ? ty : 1.0 - ty;
      if (wy == 0.0) continue;  // por-lint: allow(float-eq) exact-zero skip
      for (int dx = 0; dx < 2; ++dx) {
        const double wx = dx ? tx : 1.0 - tx;
        if (wx == 0.0) continue;  // por-lint: allow(float-eq) exact-zero skip
        acc += wz * wy * wx * cell(iz + dz, iy + dy, ix + dx);
      }
    }
  }
  return acc;
}

/// Trilinear sample of `vol` at fractional position (z, y, x); zero outside.
[[nodiscard]] inline cdouble interp_trilinear(const Volume<cdouble>& vol,
                                              double z, double y, double x) {
  const long nz = static_cast<long>(vol.nz()), ny = static_cast<long>(vol.ny()),
             nx = static_cast<long>(vol.nx());
  return interp_trilinear_with(z, y, x, [&](long zz, long yy, long xx) {
    if (zz < 0 || zz >= nz || yy < 0 || yy >= ny || xx < 0 || xx >= nx) {
      return cdouble{0.0, 0.0};
    }
    return vol(static_cast<std::size_t>(zz), static_cast<std::size_t>(yy),
               static_cast<std::size_t>(xx));
  });
}

/// Trilinear sample of a real volume (same convention).
[[nodiscard]] inline double interp_trilinear(const Volume<double>& vol,
                                             double z, double y, double x) {
  const double fz = std::floor(z), fy = std::floor(y), fx = std::floor(x);
  const long iz = static_cast<long>(fz), iy = static_cast<long>(fy),
             ix = static_cast<long>(fx);
  const double tz = z - fz, ty = y - fy, tx = x - fx;
  const long nz = static_cast<long>(vol.nz()), ny = static_cast<long>(vol.ny()),
             nx = static_cast<long>(vol.nx());

  auto sample = [&](long zz, long yy, long xx) -> double {
    if (zz < 0 || zz >= nz || yy < 0 || yy >= ny || xx < 0 || xx >= nx) {
      return 0.0;
    }
    return vol(static_cast<std::size_t>(zz), static_cast<std::size_t>(yy),
               static_cast<std::size_t>(xx));
  };

  double acc = 0.0;
  for (int dz = 0; dz < 2; ++dz) {
    const double wz = dz ? tz : 1.0 - tz;
    for (int dy = 0; dy < 2; ++dy) {
      const double wy = dy ? ty : 1.0 - ty;
      for (int dx = 0; dx < 2; ++dx) {
        const double wx = dx ? tx : 1.0 - tx;
        const double w = wz * wy * wx;
        // por-lint: allow(float-eq) exact-zero weight skip (bit-exact)
        if (w != 0.0) acc += w * sample(iz + dz, iy + dy, ix + dx);
      }
    }
  }
  return acc;
}

}  // namespace por::em
