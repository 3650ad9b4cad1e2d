// por/fft/centering.hpp
//
// The centering of a raw DFT (origin at index 0) into the library's
// centered convention (phases about the lattice center, zero frequency
// at index floor(n/2)), as one fused shift-and-phase gather per row,
// and the cube crop of a centered spectrum that central-section
// sampling inside a radius actually reads.
//
// The serial centered transforms (por/em/projection.cpp) center
// through fused_row, and the pruned transforms (the slab-parallel 3D
// DFT of parallel_fft3d.cpp, the matcher's view analysis) through
// phased_row, its per-element arithmetic on a pre-gathered row, so a
// centered sample has the same bits whichever path produced it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "por/fft/fft1d.hpp"
#include "por/util/contracts.hpp"

namespace por::fft {

/// The window [origin, origin + edge) along every axis of a centered
/// cubic spectrum.
struct CubeCrop {
  std::size_t origin = 0;
  std::size_t edge = 0;
};

/// The crop of a centered n^3 spectrum that trilinear central-section
/// samples within `radius` of the center c = floor(n/2) can read: the
/// base cells floor(c - radius) .. floor(c + radius) plus their +1
/// corners, widened by one cell on each side against coordinate
/// rounding and clamped to [0, n).  At radius = n/2 - 1 (Nyquist) the
/// crop is the whole cube.  Throws std::invalid_argument on a negative
/// radius or one beyond the cube.
[[nodiscard]] CubeCrop ball_crop(std::size_t n, double radius);

/// Per-axis centering phase factors: phase[i] = exp(sign * 2*pi*i *
/// (i - c) * c / n) with c = floor(n/2).  The full center phase of a
/// voxel is the product of its axis factors, so an n^3 volume needs
/// 3n sin/cos evaluations instead of n^3.
[[nodiscard]] std::vector<cdouble> axis_phase(std::size_t n, double sign);

/// One row of the fused shift-and-phase gather, restricted to the
/// destination columns [begin, end) (written to dst[0 .. end - begin)):
///   dst[x - begin] = src[(x + shift) % nx] * (row_factor * phase_x[x])
/// for the centerize direction, where the phase index rides with dst,
/// or
///   dst[x - begin] = src[(x + shift) % nx] *
///                    (row_factor * phase_x[(x + shift) % nx])
/// for the decenterize direction, where it rides with src.  The wrap
/// splits into two contiguous segments — no per-element modulo.
/// Inline so each centering loop folds its constant direction.
// CONTRACT: shift <= nx and begin <= end <= nx; both segment loops stay
// inside [0, nx).
inline void fused_row(cdouble* dst, const cdouble* src, std::size_t nx,
                      std::size_t shift, cdouble row_factor,
                      const std::vector<cdouble>& phase_x, bool phase_on_src,
                      std::size_t begin, std::size_t end) {
  POR_EXPECT(shift <= nx, "fused_row shift exceeds row length:", shift, ">",
             nx);
  POR_EXPECT(begin <= end && end <= nx, "fused_row columns [", begin, ",",
             end, ") exceed row length", nx);
  const std::size_t split = nx - shift;  // first dst index that wraps
  const std::size_t unwrapped_end = std::min(end, split);
  for (std::size_t x = begin; x < unwrapped_end; ++x) {
    const std::size_t xs = x + shift;
    POR_BOUNDS(xs, nx);
    dst[x - begin] = src[xs] * (row_factor * phase_x[phase_on_src ? xs : x]);
  }
  for (std::size_t x = std::max(begin, split); x < end; ++x) {
    const std::size_t xs = x + shift - nx;
    POR_BOUNDS(xs, nx);
    dst[x - begin] = src[xs] * (row_factor * phase_x[phase_on_src ? xs : x]);
  }
}

/// fused_row for a source row already gathered in centered column
/// order (the pruned transforms keep only a crop's raw columns, in crop
/// order): dst[i] = src[i] * (row_factor * phase_x[i]) for i < count —
/// the same per-element arithmetic, so a pruned transform centers
/// bitwise like the full one.
inline void phased_row(cdouble* dst, const cdouble* src, std::size_t count,
                       cdouble row_factor, const cdouble* phase_x) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = src[i] * (row_factor * phase_x[i]);
  }
}

/// The centered spectrum of a raw forward n^3 DFT (layout (z, y, x)),
/// restricted to `crop`: edge^3 samples, layout (z, y, x) relative to
/// the crop origin.  Centered row (z, y) is raw row
/// ((z + s) % n, (y + s) % n) with s = (n + 1) / 2 (fftshift) times the
/// center phase axis_phase(n, +1) — the arithmetic of a full centering
/// pass, element for element.
[[nodiscard]] std::vector<cdouble> centered_crop(const cdouble* raw,
                                                 std::size_t n, CubeCrop crop);

}  // namespace por::fft
