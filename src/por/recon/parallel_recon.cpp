#include "por/recon/parallel_recon.hpp"

#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <string>

#include "por/fft/centering.hpp"
#include "por/fft/fftnd.hpp"
#include "por/io/master_io.hpp"
#include "por/util/contracts.hpp"

namespace por::recon {

namespace {

/// Empty when this rank's inputs are usable, else what is wrong.
std::string check_inputs(std::size_t l,
                         const std::vector<em::Image<double>>& views,
                         const std::vector<em::Orientation>& orientations,
                         const std::vector<std::pair<double, double>>& centers,
                         const ReconOptions& options) {
  if (views.size() != orientations.size()) return "views/orientations";
  if (!centers.empty() && centers.size() != views.size()) return "centers size";
  if (options.pad < 1) return "pad must be >= 1";
  for (const em::Image<double>& view : views) {
    if (view.nx() != l || view.ny() != l) return "view size";
  }
  return {};
}

}  // namespace

em::Volume<double> finish_slab(vmpi::Comm& comm, std::size_t l,
                               const ReconOptions& options,
                               const GridCell* slab) {
  using em::cdouble;
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = l * options.pad;
  const std::size_t c = n / 2;
  const std::size_t hx = c + 1;
  const std::size_t plane = n * hx;
  const std::size_t o = c - l / 2;  // crop origin, as in em::crop_volume
  const std::size_t z_begin = io::block_begin(n, p, rank);
  const std::size_t z_count = io::block_share(n, p, rank);

  // Decentering: centered index i of the z and y axes is frequency
  // i - c, raw index (i + n - c) % n, and carries the phase
  // exp(-2 pi i (i - c) c / n); column kx carries exp(-2 pi i kx c / n).
  // All three factors are applied while normalizing, so the lines below
  // are plain inverse DFTs.
  const std::vector<cdouble> phase = fft::axis_phase(n, -1.0);
  std::vector<cdouble> phase_x(hx);
  for (std::size_t kx = 0; kx < hx; ++kx) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(kx) *
                         static_cast<double>(c) / static_cast<double>(n);
    phase_x[kx] = {std::cos(angle), std::sin(angle)};
  }
  const auto raw = [&](std::size_t i) { return (i + n - c) % n; };

  // Normalize my z-slab into raw (y, kx) order, then the lines along y.
  std::vector<cdouble> zslab(z_count * plane);
  for (std::size_t zl = 0; zl < z_count; ++zl) {
    const std::size_t z = z_begin + zl;
    cdouble* out = zslab.data() + zl * plane;
    for (std::size_t y = 0; y < n; ++y) {
      const cdouble row_factor = phase[z] * phase[y];
      const GridCell* src = slab + zl * plane + y * hx;
      cdouble* dst = out + raw(y) * hx;
      for (std::size_t kx = 0; kx < hx; ++kx) {
        dst[kx] = src[kx].weight >= options.weight_floor
                      ? src[kx].value / src[kx].weight *
                            (row_factor * phase_x[kx])
                      : cdouble{0.0, 0.0};
      }
    }
    fft::fft1d_lines(out, hx, n, hx, /*inverse=*/true);
  }

  // Re-slab by y: rank r receives, from every z-plane of mine, its block
  // of the l cropped rows [o, o + l).
  std::vector<std::vector<cdouble>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const std::size_t y_begin = io::block_begin(l, p, r);
    const std::size_t y_count = io::block_share(l, p, r);
    std::vector<cdouble>& block = outgoing[static_cast<std::size_t>(r)];
    block.resize(z_count * y_count * hx);
    if (block.empty()) continue;  // memcpy from/to null is UB even at 0
    for (std::size_t zl = 0; zl < z_count; ++zl) {
      std::memcpy(block.data() + zl * y_count * hx,
                  zslab.data() + zl * plane + (o + y_begin) * hx,
                  y_count * hx * sizeof(cdouble));
    }
  }
  zslab = {};
  std::vector<std::vector<cdouble>> incoming = comm.alltoall(outgoing);
  outgoing = {};

  // My y-slab in (y, raw z, kx) order, then the lines along z.
  const std::size_t y_count = io::block_share(l, p, rank);
  std::vector<cdouble> yslab(y_count * plane);
  for (int s = 0; s < p; ++s) {
    const std::size_t zs_begin = io::block_begin(n, p, s);
    const std::size_t zs_count = io::block_share(n, p, s);
    const std::vector<cdouble>& block = incoming[static_cast<std::size_t>(s)];
    POR_ENSURE(block.size() == zs_count * y_count * hx,
               "slab exchange block has wrong size:", block.size());
    for (std::size_t zl = 0; zl < zs_count; ++zl) {
      const std::size_t zr = raw(zs_begin + zl);
      for (std::size_t yl = 0; yl < y_count; ++yl) {
        std::memcpy(yslab.data() + (yl * n + zr) * hx,
                    block.data() + (zl * y_count + yl) * hx,
                    hx * sizeof(cdouble));
      }
    }
  }
  incoming = {};
  for (std::size_t yl = 0; yl < y_count; ++yl) {
    fft::fft1d_lines(yslab.data() + yl * plane, hx, n, hx, /*inverse=*/true);
  }

  // Complex-to-real lines along x for the cropped z rows, cropped to
  // my rows of the map, layout (y, z, x).
  std::vector<double> mine(y_count * l * l);
  std::vector<double> lines(l * n);
  for (std::size_t yl = 0; yl < y_count; ++yl) {
    fft::irfft_rows(yslab.data() + (yl * n + o) * hx, lines.data(), l, n);
    for (std::size_t zc = 0; zc < l; ++zc) {
      std::memcpy(mine.data() + (yl * l + zc) * l, lines.data() + zc * n + o,
                  l * sizeof(double));
    }
  }
  yslab = {};

  // Every rank assembles the same map from the gathered rows.
  const std::vector<double> gathered = comm.allgather(mine);
  POR_ENSURE(gathered.size() == l * l * l,
             "map all-gather returned wrong size:", gathered.size());
  em::Volume<double> map(l);
  const double* next = gathered.data();
  for (int r = 0; r < p; ++r) {
    const std::size_t y_begin = io::block_begin(l, p, r);
    for (std::size_t yl = 0; yl < io::block_share(l, p, r); ++yl) {
      for (std::size_t zc = 0; zc < l; ++zc, next += l) {
        std::memcpy(&map(zc, y_begin + yl, 0), next, l * sizeof(double));
      }
    }
  }
  // No extra scale: by the discrete projection-slice theorem the 2D
  // DFT of a projection equals the corresponding central section of
  // the 3D DFT sample-for-sample, so the weight-normalized grid IS an
  // estimate of the volume's DFT and the inverse transform restores
  // density units directly (verified against rasterized phantoms in
  // tests/test_recon.cpp).
  return map;
}

em::Volume<double> parallel_fourier_reconstruct(
    vmpi::Comm& comm, std::size_t l,
    const std::vector<em::Image<double>>& my_views,
    const std::vector<em::Orientation>& my_orientations,
    const std::vector<std::pair<double, double>>& my_centers,
    const ReconOptions& options) {
  // A rank that threw here alone would leave its peers blocked in the
  // reduce-scatter, so every rank waits for the verdict first.
  const std::string problem =
      check_inputs(l, my_views, my_orientations, my_centers, options);
  const int bad_ranks = comm.allreduce_value(problem.empty() ? 0 : 1,
                                             vmpi::ReduceOp::kSum);
  if (bad_ranks > 0) {
    throw std::invalid_argument(
        "parallel_fourier_reconstruct: " +
        (problem.empty() ? std::string("bad input on another rank") : problem));
  }

  const int p = comm.size();
  const std::size_t n = l * options.pad;
  const std::size_t plane = n * (n / 2 + 1);
  std::vector<std::vector<GridCell>> outgoing(static_cast<std::size_t>(p));
  {
    FourierAccumulator acc(l, options);
    for (std::size_t i = 0; i < my_views.size(); ++i) {
      const double cx = my_centers.empty() ? 0.0 : my_centers[i].first;
      const double cy = my_centers.empty() ? 0.0 : my_centers[i].second;
      acc.insert(my_views[i], my_orientations[i], cx, cy);
    }
    // Reduce-scatter by z-slab: rank r gets every rank's cells of its
    // planes and nothing else.
    const GridCell* cells = acc.cells.data();
    for (int r = 0; r < p; ++r) {
      const GridCell* first = cells + io::block_begin(n, p, r) * plane;
      outgoing[static_cast<std::size_t>(r)].assign(
          first, first + io::block_share(n, p, r) * plane);
    }
  }
  std::vector<std::vector<GridCell>> incoming = comm.alltoall(outgoing);
  outgoing = {};

  // Sum in rank order, so the slab does not depend on arrival order.
  std::vector<GridCell> slab(io::block_share(n, p, comm.rank()) * plane);
  for (const std::vector<GridCell>& block : incoming) {
    POR_ENSURE(block.size() == slab.size(),
               "reduce-scatter block has wrong size:", block.size(), "!=",
               slab.size());
    for (std::size_t i = 0; i < slab.size(); ++i) {
      slab[i].value += block[i].value;
      slab[i].weight += block[i].weight;
    }
  }
  incoming = {};
  return finish_slab(comm, l, options, slab.data());
}

}  // namespace por::recon
