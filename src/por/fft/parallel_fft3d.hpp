// por/fft/parallel_fft3d.hpp
//
// The paper's Step (a): a slab-decomposed, distributed-memory parallel
// 3D DFT that ends with every rank holding a full copy of the
// transformed volume.
//
//   a.1  the master holds the electron density map D (l^3 voxels)
//   a.2  the master scatters one z-slab of l/P xy-planes to each rank
//   a.3  each rank runs a 2D DFT on every xy-plane of its z-slab
//   a.4  a global exchange (all-to-all) re-slabs the data into y-slabs
//   a.5  each rank runs 1D DFTs along z inside its y-slab
//   a.6  an all-gather replicates the complete 3D DFT on every rank
//
// Replication (a.6) is the paper's deliberate space-for-communication
// trade-off (§6): each subsequent matching step can then cut arbitrary
// central sections without any further communication.
//
// v2: the per-rank compute stages run on the plan-cached batched
// engine of fftnd.hpp.  All packing/unpacking moves whole x-rows with
// memcpy, the single-rank case short-circuits to the serial transform
// (zero communication), and the collective is bit-identical to the
// serial fft3d_* of the same volume: the same 1D plans transform the
// same lines in the same per-line operation order, regardless of rank
// count.
#pragma once

#include <cstddef>
#include <vector>

#include "por/fft/fft1d.hpp"
#include "por/fft/fftnd.hpp"
#include "por/vmpi/comm.hpp"

namespace por::fft {

/// SPMD collective: every rank calls it; `full_on_root` is consumed on
/// rank 0 and ignored elsewhere.  `l` is the cube edge and must be
/// divisible by comm.size().  Returns the complete forward 3D DFT
/// (layout (z,y,x), unnormalized, origin at index 0) on every rank.
[[nodiscard]] std::vector<cdouble> parallel_fft3d_forward(
    vmpi::Comm& comm, std::vector<cdouble> full_on_root, std::size_t l);

/// Inverse twin (includes the 1/l^3 factor, matching fft3d_inverse):
/// same slab pipeline, inverse line transforms.  parallel_fft3d_inverse
/// of parallel_fft3d_forward reproduces the input on every rank.
[[nodiscard]] std::vector<cdouble> parallel_fft3d_inverse(
    vmpi::Comm& comm, std::vector<cdouble> full_on_root, std::size_t l);

}  // namespace por::fft
