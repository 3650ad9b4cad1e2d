// por/em/interp.hpp
//
// Bilinear / trilinear interpolation on complex lattices, used to cut
// central sections through the 3D DFT (paper step f: "construct a set
// of 2D-cuts of the 3D-DFT of the electron density map by interpolation
// in the 3D Fourier domain").  Samples outside the lattice are zero —
// consistent with truncating the transform at the resolution sphere.
#pragma once

#include <cmath>

#if defined(__SSE2__) || defined(_M_X64)
#define POR_INTERP_SSE2 1
#include <emmintrin.h>
#endif

#include "por/em/grid.hpp"
#include "por/util/contracts.hpp"

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

/// Branch-free trilinear sample of a split-complex lattice at
/// fractional position (z, y, x).
///
/// CONTRACT: z, y, x must be non-negative and floor(z), floor(y),
/// floor(x) must each lie in [0, lat.edge - 1] (checked by POR_EXPECT
/// in interp_trilinear_interior).  The caller establishes this with a
/// radius-vs-lattice guard hoisted OUT of the pixel loop (e.g. the
/// matcher proves every annulus sample satisfies it from
/// r_max <= floor(edge/2) - 1 once per construction).  Under that
/// contract the 2x2x2 fetch needs no per-sample bounds checks: a +1
/// neighbor index that leaves the logical cube lands in the lattice's
/// zero pad, reproducing interp_trilinear's "zero outside" convention
/// exactly (weights are combined in the same order, ((wz*wy)*wx), and
/// zero-weight terms contribute exact +-0.0; only the final summation
/// tree differs, a last-ulp effect well inside the 1e-12 equivalence
/// budget).
struct SplitSample {
  double re = 0.0;
  double im = 0.0;
};

/// Trilinear fetch of an already-resolved cell: `base` is the flat
/// index of the (iz, iy, ix) corner, (tz, ty, tx) the fractional
/// offsets in [0, 1).  This is the fetch half of
/// interp_trilinear_interior, split out so callers that software-
/// pipeline the address computation (matcher block prefetch) do not
/// recompute it.  Identical arithmetic, bit-for-bit.
[[nodiscard]] inline SplitSample interp_trilinear_cell(
    const SplitComplexLattice& lat, std::size_t base, double tz, double ty,
    double tx) {
  // The +1,+1,+1 corner is the largest index the fetch touches; if it
  // is inside the padded plane, all eight corners are.
  POR_BOUNDS(base + lat.stride_z + lat.stride_y + 1, lat.re.size());

  // Weight products in the reference's association order ((wz*wy)*wx).
  const double wz0 = 1.0 - tz, wz1 = tz;
  const double wy0 = 1.0 - ty, wy1 = ty;
  const double wx0 = 1.0 - tx, wx1 = tx;
  const double w00 = wz0 * wy0, w01 = wz0 * wy1;
  const double w10 = wz1 * wy0, w11 = wz1 * wy1;

  // The four (iy, iz) row bases are shared between the re and im plane
  // fetches and between the packed and scalar bodies: each row's
  // (x, x+1) corner pair sits at offsets 0 and 1 from its base, so
  // only these four offsets are ever computed — the odd corners are
  // base+1 within a row, never separate index arithmetic.
  const std::size_t i000 = base;
  const std::size_t i010 = base + lat.stride_y;
  const std::size_t i100 = base + lat.stride_z;
  const std::size_t i110 = base + lat.stride_z + lat.stride_y;
  const double* re = lat.re.data();
  const double* im = lat.im.data();
  const double* re00 = re + i000;
  const double* re01 = re + i010;
  const double* re10 = re + i100;
  const double* re11 = re + i110;
  const double* im00 = im + i000;
  const double* im01 = im + i010;
  const double* im10 = im + i100;
  const double* im11 = im + i110;
  SplitSample s;
#if POR_INTERP_SSE2
  // The (x, x+1) corner pairs are contiguous in each plane, so the
  // eight corners of a plane are four unaligned 16-byte loads.  Packing
  // (wx0, wx1) into one register turns the weighting into four packed
  // multiply-adds per plane — half the loads and roughly half the FLOP
  // count of the scalar expansion.  Per-corner products are identical
  // to the scalar form ((wz*wy)*wx multiplied into the sample); only
  // the final summation association differs (even/odd-corner lanes
  // summed last), a last-ulp effect inside the 1e-12 budget.  On exact
  // lattice points every weight is exactly 1.0 or 0.0, so the result
  // is still bit-exact.
  const __m128d wx = _mm_set_pd(wx1, wx0);  // lane0 = wx0, lane1 = wx1
  const __m128d w00v = _mm_mul_pd(_mm_set1_pd(w00), wx);
  const __m128d w01v = _mm_mul_pd(_mm_set1_pd(w01), wx);
  const __m128d w10v = _mm_mul_pd(_mm_set1_pd(w10), wx);
  const __m128d w11v = _mm_mul_pd(_mm_set1_pd(w11), wx);
  const __m128d re_acc =
      _mm_add_pd(_mm_add_pd(_mm_mul_pd(w00v, _mm_loadu_pd(re00)),
                            _mm_mul_pd(w01v, _mm_loadu_pd(re01))),
                 _mm_add_pd(_mm_mul_pd(w10v, _mm_loadu_pd(re10)),
                            _mm_mul_pd(w11v, _mm_loadu_pd(re11))));
  const __m128d im_acc =
      _mm_add_pd(_mm_add_pd(_mm_mul_pd(w00v, _mm_loadu_pd(im00)),
                            _mm_mul_pd(w01v, _mm_loadu_pd(im01))),
                 _mm_add_pd(_mm_mul_pd(w10v, _mm_loadu_pd(im10)),
                            _mm_mul_pd(w11v, _mm_loadu_pd(im11))));
  // One packed horizontal reduction for both components:
  // lane0 = re_even + re_odd, lane1 = im_even + im_odd — the same
  // (even-lane + odd-lane) sums as two scalar extracts would compute.
  const __m128d packed = _mm_add_pd(_mm_unpacklo_pd(re_acc, im_acc),
                                    _mm_unpackhi_pd(re_acc, im_acc));
  s.re = _mm_cvtsd_f64(packed);
  s.im = _mm_cvtsd_f64(_mm_unpackhi_pd(packed, packed));
#else
  const double w000 = w00 * wx0, w001 = w00 * wx1;
  const double w010 = w01 * wx0, w011 = w01 * wx1;
  const double w100 = w10 * wx0, w101 = w10 * wx1;
  const double w110 = w11 * wx0, w111 = w11 * wx1;
  s.re = ((w000 * re00[0] + w001 * re00[1]) +
          (w010 * re01[0] + w011 * re01[1])) +
         ((w100 * re10[0] + w101 * re10[1]) +
          (w110 * re11[0] + w111 * re11[1]));
  s.im = ((w000 * im00[0] + w001 * im00[1]) +
          (w010 * im01[0] + w011 * im01[1])) +
         ((w100 * im10[0] + w101 * im10[1]) +
          (w110 * im11[0] + w111 * im11[1]));
#endif
  return s;
}

[[nodiscard]] inline SplitSample interp_trilinear_interior(
    const SplitComplexLattice& lat, double z, double y, double x) {
  // Truncation-floor domain: the contract guarantees z, y, x >= 0, so
  // integer truncation IS floor — bit-identical to std::floor on the
  // contract domain, but it compiles to a single cvttsd2si instead of
  // a libm call on baseline x86-64 (no roundsd), which matters at ~3
  // floors per annulus pixel.  A negative coordinate would truncate
  // TOWARD zero (not down) and silently sample the wrong cell.
  POR_EXPECT(z >= 0.0 && y >= 0.0 && x >= 0.0,
             "truncation-floor domain violated: z =", z, "y =", y, "x =", x);
  const std::size_t iz = static_cast<std::size_t>(z),
                    iy = static_cast<std::size_t>(y),
                    ix = static_cast<std::size_t>(x);
  // Lattice-edge guard: the base cell must sit inside the logical
  // cube; the +1 neighbours then land at most in the zero pad.
  POR_EXPECT(iz < lat.edge && iy < lat.edge && ix < lat.edge,
             "base cell outside lattice: iz =", iz, "iy =", iy, "ix =", ix,
             "edge =", lat.edge);
  const double fz = static_cast<double>(iz), fy = static_cast<double>(iy),
               fx = static_cast<double>(ix);
  const std::size_t base = iz * lat.stride_z + iy * lat.stride_y + ix;
  return interp_trilinear_cell(lat, base, z - fz, y - fy, x - fx);
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
