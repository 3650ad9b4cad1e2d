// por/fft/parallel_fft3d.hpp
//
// The paper's Step (a): a slab-decomposed, distributed-memory parallel
// 3D DFT of the zero-padded density map that ends with every rank
// holding the part of the centered transform that matching reads.
//
// A matching reads only the r_map ball of the centered transform
// (fft::ball_crop), and the padded map is mostly zeros: at l = 128 with
// pad 2 the 256^3 input is 7/8 padding and the ball (edge 68 at
// r_map = 16) is ~2% of the output.  The collective therefore prunes
// both ends of every pass (Markel, "FFT pruning", 1971): a line is
// transformed only if its input holds map data and its output reaches
// the ball.  With n = l * pad and e = ball.edge:
//
//   a.1  the master holds the unpadded l^3 real map; no rank ever
//        materializes the padded n^3 cube
//   a.2  the master scatters the map by z-planes, rank r taking the
//        io::block_share(l, P, r) planes from io::block_begin(l, P, r):
//        l^3 doubles (16.8 MB at l = 128, against 268 MB of padded
//        complex cube)
//   a.3  per plane, in one reused n x n scratch: x-lines on the l rows
//        that hold input, then y-lines on the e raw kx columns of the
//        ball (at most two contiguous runs); keep the e x e (ky, kx)
//        ball block
//   a.4  one all-to-all of the compact blocks, re-slabbing by ball row
//        (rank r takes block_share(e, P, r) rows): l * e^2 samples in
//        total (9.5 MB at l = 128)
//   a.5  z-lines on the e^2 ball (ky, kx) lines only
//   a.6  center (fftshift + center phase, the per-element arithmetic
//        of fft::fused_row) while packing, and all-gather the ball:
//        (P - 1) * e^3 samples
//
// Lines transformed in total: l^2 + l*e + e^2, against 3 * n^2 for
// the full transform: ~29.7k instead of 196.6k 256-point lines at
// l = 128.
//
// Bitwise contract.  Every computed line runs the same cached 1D plan
// over the same values as fft3d_forward of the padded cube, and the
// centering is fused_row's arithmetic, so the ball is bitwise
//   centered_crop(fft3d_forward(to_complex(pad_volume(map, pad))), ball)
// for any rank count.  A skipped line counts as +0.0 zeros, where the
// full transform computes the plan's output on a zero line; for a
// Bluestein length that output carries -0.0 components, but the next
// pass sums them with the other inputs, so even the all-zero map keeps
// the full transform's bits (test_parallel_fft pins it).
#pragma once

#include <cstddef>
#include <vector>

#include "por/fft/centering.hpp"
#include "por/fft/fft1d.hpp"
#include "por/vmpi/comm.hpp"

namespace por::fft {

/// SPMD collective: every rank calls it with the same `l`, `pad` and
/// `ball`; `map_on_root` (the unpadded l^3 real map, layout (z, y, x))
/// is read on rank 0 and ignored elsewhere.  Any rank count works.
/// `ball` is a crop of the padded n^3 spectrum, n = l * pad (typically
/// fft::ball_crop of the matching radius).  Returns, on every rank, the
/// forward 3D DFT of the map zero-padded as em::pad_volume does, in the
/// centered convention, restricted to `ball`: ball.edge^3 samples,
/// layout (z, y, x) from ball.origin on.  Adds the points of the lines
/// it transforms to "fft.nd.points".  Throws std::invalid_argument on a
/// zero edge or pad, a ball outside the padded cube, or (on the root) a
/// map that does not hold l^3 voxels.
[[nodiscard]] std::vector<cdouble> parallel_padded_fft3d(
    vmpi::Comm& comm, const std::vector<double>& map_on_root, std::size_t l,
    std::size_t pad, CubeCrop ball);

}  // namespace por::fft
