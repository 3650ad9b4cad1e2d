// por/fft/fftnd.hpp
//
// 2D and 3D DFTs by row-column decomposition.  Centering the
// transform on the zero frequency goes through fft::fused_row /
// centered_crop (por/fft/centering.hpp).
//
// v2 engine (see DESIGN.md §9):
//   * every 1D plan comes from the process-wide PlanCache — twiddles
//     and Bluestein chirp transforms are built once per length, ever;
//   * column / z-line passes run through a cache-blocked
//     transpose-into-scratch -> contiguous row FFTs -> transpose-back
//     batcher instead of per-line strided gathers;
//   * real inputs go through rfft2d_forward / rfft3d_forward, which
//     exploit Hermitian symmetry (two real rows per complex transform,
//     half the column lines + conjugate mirror) for ~2x less work;
//     rfft3d_half keeps only the half spectrum, and irfft_rows is the
//     matching complex-to-real inverse along x.
//
// Every transform runs serially on the calling thread; parallelism
// lives one level up, across views and across the ranks of the
// slab-parallel 3D transform.
//
// Layouts are row-major:
//   2D: data[y * nx + x]
//   3D: data[(z * ny + y) * nx + x]
#pragma once

#include <cstddef>

#include "por/fft/fft1d.hpp"

namespace por::fft {

// ---- 1D batch -------------------------------------------------------------

/// Transform `count` lines of length n in one batch: line j starts at
/// base + j and its elements are `stride` apart (the memory pattern of
/// every column/z-line pass in this library).  Uses the blocked
/// transpose batcher; plans come from the cache.  Exposed for the
/// slab-parallel 3D driver and for tests.
void fft1d_lines(cdouble* base, std::size_t count, std::size_t n,
                 std::size_t stride, bool inverse);

// ---- 2D -------------------------------------------------------------------

/// In-place forward 2D DFT of an ny x nx array.
void fft2d_forward(cdouble* data, std::size_t ny, std::size_t nx);

/// In-place inverse 2D DFT (includes the 1/(ny*nx) factor).
void fft2d_inverse(cdouble* data, std::size_t ny, std::size_t nx);

/// Real-to-complex forward 2D DFT: reads the real ny x nx array `src`,
/// writes its full complex spectrum (identical layout and values — up
/// to rounding ~1e-15 — to fft2d_forward of the promoted input) to
/// `dst`.  Exploits Hermitian symmetry twice: row transforms pack two
/// real rows into one complex FFT, and only columns x <= nx/2 are
/// transformed, the rest being filled by the conjugate mirror
/// F[y][x] = conj(F[(ny-y)%ny][(nx-x)%nx]).  `src` and `dst` must not
/// alias.
void rfft2d_forward(const double* src, cdouble* dst, std::size_t ny,
                    std::size_t nx);

/// rfft2d_forward's half spectrum, pruned at both ends (Markel's FFT
/// pruning) for a zero-padded image: `src` (real ny x nx) is zero
/// outside rows [row_begin, row_end), and only the bins kx < cols
/// (cols <= nx/2 + 1) are wanted.  Writes bins 0..cols-1 of every row y
/// to dst[y * ld ...] (ld >= cols), each bitwise the bin
/// rfft2d_forward computes: r2c row pairs run only where a row of the
/// pair holds input (a pair straddling row_begin or row_end still runs
/// as a pair), the other rows are taken as zero, and column lines run
/// only for kx < cols.  Adds the points of the lines it transforms to
/// "fft.nd.points".  `src` and `dst` must not alias.
void rfft2d_pruned(const double* src, cdouble* dst, std::size_t ny,
                   std::size_t nx, std::size_t row_begin, std::size_t row_end,
                   std::size_t cols, std::size_t ld);

// ---- 3D -------------------------------------------------------------------

/// In-place forward 3D DFT of an nz x ny x nx array.
void fft3d_forward(cdouble* data, std::size_t nz, std::size_t ny,
                   std::size_t nx);

/// In-place inverse 3D DFT (includes the 1/(nz*ny*nx) factor).
void fft3d_inverse(cdouble* data, std::size_t nz, std::size_t ny,
                   std::size_t nx);

/// Real-to-complex forward 3D DFT (full complex output, same contract
/// as rfft2d_forward): r2c plane transforms + z-lines only for
/// x <= nx/2, then the 3D conjugate mirror.
void rfft3d_forward(const double* src, cdouble* dst, std::size_t nz,
                    std::size_t ny, std::size_t nx);

/// Real-to-complex forward 3D DFT that stops at the half spectrum: the
/// bins kx = 0..nx/2 of every (z, y) row, compact layout
/// dst[(z * ny + y) * (nx/2 + 1) + kx], raw order (zero frequency at
/// index 0), no mirror fill.  Each stored bin is bitwise the one
/// rfft3d_forward computes.  `src` and `dst` must not alias.
void rfft3d_half(const double* src, cdouble* dst, std::size_t nz,
                 std::size_t ny, std::size_t nx);

/// Complex-to-real inverse DFT of `rows` lines: line r reads the half
/// spectrum src[r * (nx/2 + 1) ...] (bins 0..nx/2 of a real signal's
/// DFT, raw order) and writes its nx real samples, with the 1/nx
/// factor, to dst[r * nx ...].  The bins above nx/2 are taken as the
/// conjugate mirror, and only the real parts of bin 0 and (even nx)
/// bin nx/2 are read, so the output is the real part of the inverse of
/// the Hermitian extension.  Two lines share one complex transform.
void irfft_rows(const cdouble* src, double* dst, std::size_t rows,
                std::size_t nx);

}  // namespace por::fft
