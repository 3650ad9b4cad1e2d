// por/fft/parallel_fft3d.hpp
//
// The paper's Step (a): a slab-decomposed, distributed-memory parallel
// 3D DFT that ends with every rank holding the part of the centered
// transform that matching reads.
//
//   a.1  the master holds the electron density map D (l^3 voxels)
//   a.2  the master scatters one z-slab of l/P xy-planes to each rank
//   a.3  each rank runs a 2D DFT on every xy-plane of its z-slab
//   a.4  a global exchange (all-to-all) re-slabs the data into y-slabs
//   a.5  each rank runs 1D DFTs along z inside its y-slab
//   a.6  an all-gather replicates the r_map ball of the centered 3D DFT
//        on every rank
//
// Replication (a.6) is the paper's deliberate space-for-communication
// trade-off (§6): each subsequent matching step can then cut arbitrary
// central sections without any further communication.  The paper
// replicates the whole transform; a matching reads only samples inside
// r_map, so a.6 replicates only the cube that holds them
// (fft::ball_crop) — at r_map = l/8 about a fiftieth of the volume.
// Each rank centers (fftshift + center phase, fft::fused_row) the rows
// of its y-slab that fall in that cube while packing them, so no rank
// ever centers or holds the full transform.
//
// v2: the per-rank compute stages run on the plan-cached batched
// engine of fftnd.hpp.  All packing/unpacking moves whole x-rows with
// memcpy, the single-rank case short-circuits to the serial transform
// (zero communication), and the collective is bit-identical to
// fft::centered_crop of the serial fft3d_forward of the same volume:
// the same 1D plans transform the same lines in the same per-line
// operation order, and the centering is the same per-element
// arithmetic, regardless of rank count.
#pragma once

#include <cstddef>
#include <vector>

#include "por/fft/centering.hpp"
#include "por/fft/fft1d.hpp"
#include "por/fft/fftnd.hpp"
#include "por/vmpi/comm.hpp"

namespace por::fft {

/// SPMD collective: every rank calls it; `full_on_root` is consumed on
/// rank 0 and ignored elsewhere.  `l` is the cube edge and must be
/// divisible by comm.size(); `ball` is a crop of the l^3 cube
/// (typically fft::ball_crop of the matching radius).  Returns, on
/// every rank, the forward 3D DFT in the centered convention
/// restricted to `ball`: ball.edge^3 samples, layout (z, y, x) from
/// ball.origin on — bitwise centered_crop(fft3d_forward(input), ball).
[[nodiscard]] std::vector<cdouble> parallel_fft3d_forward(
    vmpi::Comm& comm, std::vector<cdouble> full_on_root, std::size_t l,
    CubeCrop ball);

}  // namespace por::fft
