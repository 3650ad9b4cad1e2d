#include "por/fft/parallel_fft3d.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "por/fft/fftnd.hpp"
#include "por/fft/obs_handles.hpp"
#include "por/fft/plan_cache.hpp"
#include "por/io/master_io.hpp"
#include "por/util/contracts.hpp"

namespace por::fft {

namespace {

/// Adjacent raw DFT indices [raw, raw + count) that sit at crop
/// positions [crop, crop + count).
struct Run {
  std::size_t raw = 0;
  std::size_t crop = 0;
  std::size_t count = 0;
};

/// The raw indices of the centered crop along an axis of length n —
/// centered index c is raw (c + s) % n with s = (n + 1) / 2 — as runs
/// of adjacent raw indices: at most two, split where the crop wraps.
std::vector<Run> raw_runs(std::size_t n, CubeCrop crop) {
  const std::size_t shift = (n + 1) / 2;
  std::vector<Run> runs;
  for (std::size_t j = 0; j < crop.edge; ++j) {
    const std::size_t raw = (crop.origin + j + shift) % n;
    if (runs.empty() || runs.back().raw + runs.back().count != raw) {
      runs.push_back({raw, j, 0});
    }
    ++runs.back().count;
  }
  return runs;
}

}  // namespace

std::vector<cdouble> parallel_padded_fft3d(
    vmpi::Comm& comm, const std::vector<double>& map_on_root, std::size_t l,
    std::size_t pad, CubeCrop ball) {
  if (l == 0 || pad == 0) {
    throw std::invalid_argument("parallel_padded_fft3d: zero edge or pad");
  }
  const std::size_t n = l * pad;
  if (ball.origin + ball.edge > n) {
    throw std::invalid_argument("parallel_padded_fft3d: ball exceeds the cube");
  }
  if (comm.is_root() && map_on_root.size() != l * l * l) {
    throw std::invalid_argument(
        "parallel_padded_fft3d: root map must hold l^3 voxels");
  }
  const int p = comm.size(), rank = comm.rank();
  const std::size_t e = ball.edge;
  const std::size_t off = n / 2 - l / 2;  // em::pad_volume's placement
  const std::vector<Run> runs = raw_runs(n, ball);
  std::vector<std::size_t> raw(e);  // raw index of crop position j
  for (const Run& run : runs) {
    for (std::size_t t = 0; t < run.count; ++t) raw[run.crop + t] = run.raw + t;
  }

  // This rank's map planes (a.2) and ball rows (a.4 onward).
  const std::size_t planes = io::block_share(l, p, rank);
  const std::size_t rows = io::block_share(e, p, rank);
  const std::size_t row0 = io::block_begin(e, p, rank);

  // (a.2) master scatters the unpadded map by z-planes.
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] = io::block_share(l, p, r) * l * l;
  }
  const std::vector<double> slab = comm.scatter(0, map_on_root, counts);
  POR_ENSURE(slab.size() == planes * l * l, "scatter returned wrong slab size:",
             slab.size(), "!=", planes * l * l);

  // (a.3) per plane, in one n x n scratch: x-lines only on the rows
  // [off, off + l) that hold the map plane (padded with zeros as
  // to_complex(pad_volume(...)) holds it), y-lines only on the ball
  // columns; every other row is zero.  The e x e ball block's rows go
  // to the rank that owns them, layout (plane, row, column).
  std::vector<std::vector<cdouble>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    outgoing[static_cast<std::size_t>(r)].resize(planes *
                                                 io::block_share(e, p, r) * e);
  }
  const std::shared_ptr<const Fft1D> plan = cached_plan(n);
  std::vector<cdouble> scratch(n * n);
  std::vector<cdouble> block(e * e);
  for (std::size_t zl = 0; zl < planes; ++zl) {
    for (std::size_t y = 0; y < n; ++y) {
      cdouble* row = scratch.data() + y * n;
      if (y >= off && y < off + l) {
        const double* src = slab.data() + (zl * l + y - off) * l;
        std::fill(row, row + off, cdouble{0.0, 0.0});
        for (std::size_t x = 0; x < l; ++x) row[off + x] = {src[x], 0.0};
        std::fill(row + off + l, row + n, cdouble{0.0, 0.0});
        plan->forward(row);
      } else {
        // The previous plane's y-lines overwrote the ball columns.
        for (const Run& run : runs) {
          std::fill(row + run.raw, row + run.raw + run.count,
                    cdouble{0.0, 0.0});
        }
      }
    }
    for (const Run& run : runs) {
      fft1d_lines(scratch.data() + run.raw, run.count, n, n,
                  /*inverse=*/false);
    }
    for (std::size_t j = 0; j < e; ++j) {
      const cdouble* src = scratch.data() + raw[j] * n;
      for (const Run& run : runs) {
        POR_BOUNDS(run.raw + run.count - 1, n);
        std::memcpy(block.data() + j * e + run.crop, src + run.raw,
                    run.count * sizeof(cdouble));
      }
    }
    for (int r = 0; r < p; ++r) {
      const std::size_t share = io::block_share(e, p, r);
      if (share == 0) continue;
      std::memcpy(outgoing[static_cast<std::size_t>(r)].data() +
                      zl * share * e,
                  block.data() + io::block_begin(e, p, r) * e,
                  share * e * sizeof(cdouble));
    }
  }
  scratch.clear();
  scratch.shrink_to_fit();

  // (a.4) one exchange of the compact blocks.
  const std::vector<std::vector<cdouble>> incoming = comm.alltoall(outgoing);
  outgoing.clear();

  // (a.5) z-lines on this rank's ball rows.  Layout (row, z, column):
  // per row, the e lines along z start at adjacent offsets, stride e;
  // the padding planes stay zero.
  std::vector<cdouble> zlines(rows * n * e);
  for (std::size_t jl = 0; jl < rows; ++jl) {
    cdouble* line_base = zlines.data() + jl * n * e;
    for (int s = 0; s < p; ++s) {
      const std::vector<cdouble>& from = incoming[static_cast<std::size_t>(s)];
      const std::size_t z0 = off + io::block_begin(l, p, s);
      const std::size_t their_planes = io::block_share(l, p, s);
      POR_ENSURE(from.size() == their_planes * rows * e,
                 "alltoall block has wrong size:", from.size());
      for (std::size_t zl = 0; zl < their_planes; ++zl) {
        std::memcpy(line_base + (z0 + zl) * e,
                    from.data() + (zl * rows + jl) * e, e * sizeof(cdouble));
      }
    }
    fft1d_lines(line_base, e, n, e, /*inverse=*/false);
  }
  detail::obs_handles().nd_points->add((planes * (l + e) + rows * e) * n);

  // (a.6) center while packing — fused_row's per-element arithmetic
  // (phased_row) — then all-gather.  Ranks own ascending blocks of
  // ball rows, so the concatenation is the ball in (y, z, x) order.
  const std::vector<cdouble> phase = axis_phase(n, +1.0);
  const std::size_t o = ball.origin;
  std::vector<cdouble> mine(rows * e * e);
  for (std::size_t jl = 0; jl < rows; ++jl) {
    const std::size_t y = o + row0 + jl;
    for (std::size_t z = o; z < o + e; ++z) {
      const cdouble* src = zlines.data() + (jl * n + raw[z - o]) * e;
      phased_row(mine.data() + (jl * e + (z - o)) * e, src, e,
                 phase[z] * phase[y], phase.data() + o);
    }
  }
  zlines.clear();
  zlines.shrink_to_fit();
  const std::vector<cdouble> gathered = comm.allgather(mine);
  POR_ENSURE(gathered.size() == e * e * e,
             "allgather returned wrong ball size:", gathered.size());

  std::vector<cdouble> out(e * e * e);
  for (std::size_t y = 0; y < e; ++y) {
    for (std::size_t z = 0; z < e; ++z) {
      std::memcpy(out.data() + (z * e + y) * e,
                  gathered.data() + (y * e + z) * e, e * sizeof(cdouble));
    }
  }
  return out;
}

}  // namespace por::fft
