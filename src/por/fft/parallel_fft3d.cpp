#include "por/fft/parallel_fft3d.hpp"

#include <cstring>
#include <stdexcept>

#include "por/util/contracts.hpp"

namespace por::fft {

std::vector<cdouble> parallel_fft3d_forward(vmpi::Comm& comm,
                                            std::vector<cdouble> full_on_root,
                                            std::size_t l, CubeCrop ball) {
  const int p = comm.size();
  if (l % static_cast<std::size_t>(p) != 0) {
    throw std::invalid_argument(
        "parallel_fft3d: cube edge must be divisible by the number of ranks");
  }
  if (ball.origin + ball.edge > l) {
    throw std::invalid_argument("parallel_fft3d: ball exceeds the cube");
  }
  if (comm.is_root() && full_on_root.size() != l * l * l) {
    throw std::invalid_argument(
        "parallel_fft3d: root volume must hold l^3 voxels");
  }

  // Single rank: the slab pipeline degenerates to the serial transform
  // — skip the scatter/exchange/gather machinery entirely so a
  // one-rank "parallel" call moves zero bytes.
  if (p == 1) {
    fft3d_forward(full_on_root.data(), l, l, l);
    return centered_crop(full_on_root.data(), l, ball);
  }

  const std::size_t slab = l / static_cast<std::size_t>(p);  // planes per rank
  const std::size_t row_bytes = l * sizeof(cdouble);

  // (a.2) master scatters z-slabs; z-slabs are contiguous in (z,y,x).
  std::vector<cdouble> zslab = comm.scatter(0, full_on_root);
  full_on_root.clear();
  full_on_root.shrink_to_fit();
  POR_ENSURE(zslab.size() == slab * l * l, "scatter returned wrong slab size:",
             zslab.size(), "!=", slab * l * l);

  // (a.3) 2D DFT of every xy-plane in the z-slab (plan-cached).
  for (std::size_t zl = 0; zl < slab; ++zl) {
    fft2d_forward(zslab.data() + zl * l * l, l, l);
  }

  // (a.4) global exchange: block for rank r holds my z-planes restricted
  // to y in [r*slab, (r+1)*slab), layout (z_local, y_local, x) — each
  // (zl, yl) row of l voxels moves as one memcpy.
  std::vector<std::vector<cdouble>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    std::vector<cdouble>& block = outgoing[static_cast<std::size_t>(r)];
    block.resize(slab * slab * l);
    const std::size_t y0 = static_cast<std::size_t>(r) * slab;
    for (std::size_t zl = 0; zl < slab; ++zl) {
      // CONTRACT: the whole (yl = 0..slab) band of plane zl is
      // contiguous in both the slab and the block — one memcpy of
      // slab*l voxels per plane instead of per-row copies.
      POR_BOUNDS((zl * l + y0 + slab - 1) * l + l - 1, zslab.size());
      std::memcpy(block.data() + zl * slab * l,
                  zslab.data() + (zl * l + y0) * l, slab * row_bytes);
    }
  }
  zslab.clear();
  zslab.shrink_to_fit();
  std::vector<std::vector<cdouble>> incoming = comm.alltoall(outgoing);
  outgoing.clear();

  // Assemble the y-slab with layout (y_local, z, x) so the z pass sees
  // one batch of adjacent lines per y_local row block.
  std::vector<cdouble> yslab(slab * l * l);
  for (int src_rank = 0; src_rank < p; ++src_rank) {
    const std::vector<cdouble>& block =
        incoming[static_cast<std::size_t>(src_rank)];
    POR_ENSURE(block.size() == slab * slab * l,
               "alltoall block has wrong size:", block.size());
    const std::size_t z0 = static_cast<std::size_t>(src_rank) * slab;
    for (std::size_t zl = 0; zl < slab; ++zl) {
      for (std::size_t yl = 0; yl < slab; ++yl) {
        POR_BOUNDS((yl * l + z0 + zl) * l + l - 1, yslab.size());
        std::memcpy(yslab.data() + (yl * l + (z0 + zl)) * l,
                    block.data() + (zl * slab + yl) * l, row_bytes);
      }
    }
  }
  incoming.clear();

  // (a.5) 1D DFT along z: within one y_local block the lines (z, x)
  // for x = 0..l start at adjacent offsets with stride l — a single
  // batched, cache-blocked fft1d_lines call per block.
  for (std::size_t yl = 0; yl < slab; ++yl) {
    fft1d_lines(yslab.data() + yl * l * l, l, l, l, /*inverse=*/false);
  }

  // (a.6) ball all-gather.  Centered row (z, y) is raw row
  // ((z + s) % l, (y + s) % l), so the rank whose y-slab holds raw row
  // (y + s) % l owns centered row y.  Each rank packs, for its ball
  // rows y in increasing order and every ball z, the centered cropped
  // row (fused_row: the full centering pass's per-element arithmetic),
  // and the all-gather concatenates the packs in rank order.  A rank
  // whose slab holds no ball row contributes nothing.
  const std::size_t o = ball.origin, e = ball.edge;
  const std::size_t shift = (l + 1) / 2;  // fftshift
  const std::vector<cdouble> phase = axis_phase(l, +1.0);
  const auto owner = [&](std::size_t y) {
    return static_cast<int>(((y + shift) % l) / slab);
  };
  const std::size_t y_begin = static_cast<std::size_t>(comm.rank()) * slab;
  std::size_t my_rows = 0;
  for (std::size_t y = o; y < o + e; ++y) {
    if (owner(y) == comm.rank()) ++my_rows;
  }
  std::vector<cdouble> mine(my_rows * e * e);
  cdouble* dst = mine.data();
  for (std::size_t y = o; y < o + e; ++y) {
    if (owner(y) != comm.rank()) continue;
    const std::size_t yl = (y + shift) % l - y_begin;
    for (std::size_t z = o; z < o + e; ++z, dst += e) {
      const std::size_t zs = (z + shift) % l;
      POR_BOUNDS((yl * l + zs) * l + l - 1, yslab.size());
      fused_row(dst, yslab.data() + (yl * l + zs) * l, l, shift,
                phase[z] * phase[y], phase, /*phase_on_src=*/false, o, o + e);
    }
  }
  yslab.clear();
  yslab.shrink_to_fit();
  const std::vector<cdouble> gathered = comm.allgather(mine);
  POR_ENSURE(gathered.size() == e * e * e,
             "allgather returned wrong ball size:", gathered.size());

  // Unpack (y, z)-ordered packs into the (z, y, x) ball: one row-sized
  // memcpy per (y, z) pair, walking the packs in rank order.
  std::vector<cdouble> out(e * e * e);
  const cdouble* next = gathered.data();
  for (int r = 0; r < p; ++r) {
    for (std::size_t y = o; y < o + e; ++y) {
      if (owner(y) != r) continue;
      for (std::size_t z = o; z < o + e; ++z) {
        std::memcpy(out.data() + ((z - o) * e + (y - o)) * e, next,
                    e * sizeof(cdouble));
        next += e;
      }
    }
  }
  return out;
}

}  // namespace por::fft
