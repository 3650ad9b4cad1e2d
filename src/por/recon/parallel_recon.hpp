// por/recon/parallel_recon.hpp
//
// Distributed-memory driver for the Fourier reconstruction: each rank
// splats the views it owns into a private half grid, a reduce-scatter
// hands each rank the sum of its block of z-planes, and the
// slab-parallel inverse (finish_slab) ends in one all-gather of the
// real map, so every rank returns the identical map (replication
// mirrors the paper's decision to keep a full copy of the density and
// its DFT on every node).
#pragma once

#include <vector>

#include "por/recon/fourier_recon.hpp"
#include "por/vmpi/comm.hpp"

namespace por::recon {

/// SPMD collective, the second half of step C.  Every rank passes the
/// summed cells of its z-slab of the half grid: the
/// io::block_share(n, P, rank) planes from io::block_begin(n, P, rank)
/// on (n = l * options.pad), laid out as in FourierAccumulator.  Each
/// rank normalizes its slab and runs the inverse lines along y, an
/// all-to-all re-slabs the cropped rows by y, each rank runs the lines
/// along z and the complex-to-real lines along x, and one all-gather
/// of the cropped real rows returns the identical l^3 map on every
/// rank.
[[nodiscard]] em::Volume<double> finish_slab(vmpi::Comm& comm, std::size_t l,
                                             const ReconOptions& options,
                                             const GridCell* slab);

/// SPMD collective: every rank passes ITS OWN views/orientations/
/// centers (block partition); the returned map is complete and
/// identical on every rank.  `l` is the view edge (needed because a
/// rank may own zero views).  Inputs are checked on every rank and the
/// verdict is agreed on before any grid moves: a bad input on any rank
/// (sizes that disagree, a view that is not l x l, pad < 1) throws
/// std::invalid_argument on every rank.
[[nodiscard]] em::Volume<double> parallel_fourier_reconstruct(
    vmpi::Comm& comm, std::size_t l,
    const std::vector<em::Image<double>>& my_views,
    const std::vector<em::Orientation>& my_orientations,
    const std::vector<std::pair<double, double>>& my_centers = {},
    const ReconOptions& options = {});

}  // namespace por::recon
