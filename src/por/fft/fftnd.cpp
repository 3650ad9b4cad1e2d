#include "por/fft/fftnd.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "por/fft/obs_handles.hpp"
#include "por/fft/plan_cache.hpp"
#include "por/obs/registry.hpp"
#include "por/util/contracts.hpp"

namespace por::fft {

namespace {

// Number of adjacent lines gathered into one contiguous scratch tile by
// fft1d_lines.  16 complex doubles = 256 bytes = 4 cache lines per
// gathered chunk; a 16 x 128 tile is 32 KiB, i.e. one L1d.
constexpr std::size_t kLineTile = 16;

/// One relaxed atomic increment per multi-dimensional transform; the
/// transform counter resolves by name against the calling thread's
/// registry (rare — once per whole 2D/3D call), the hot nd.points
/// counter goes through the thread-local handle cache.
void count_transform(const char* name, std::size_t points) {
  obs::current_registry().counter(name).add();
  detail::obs_handles().nd_points->add(points);
}

/// Transform `rows` contiguous lines of length n starting at data
/// (row r at data + r*n).  One shared plan from the cache.
void fft_rows(cdouble* data, std::size_t rows, std::size_t n, bool inverse) {
  if (rows == 0 || n == 0) return;
  const std::shared_ptr<const Fft1D> plan = cached_plan(n);
  for (std::size_t r = 0; r < rows; ++r) {
    cdouble* row = data + r * n;
    if (inverse) {
      plan->inverse(row);
    } else {
      plan->forward(row);
    }
  }
}

// ---- r2c helpers ----------------------------------------------------------

/// Row stage of a real-input 2D transform: every row of the real
/// ny x nx array `src` is Fourier-transformed, packing two real rows
/// per complex FFT, and its bins 0..cols-1 (cols <= nx/2 + 1) are
/// written to row y of `dst` (rows `ld` apart; the other bins are left
/// untouched).  For rows x0, x1 the transform T of x0 + i*x1 splits by
/// Hermitian symmetry as
///   X0[k] = (T[k] + conj(T[(n-k)%n])) / 2
///   X1[k] = (T[k] - conj(T[(n-k)%n])) / (2i)
void r2c_rows(const double* src, cdouble* dst, std::size_t ny, std::size_t nx,
              std::size_t ld, std::size_t cols) {
  if (ny == 0 || nx == 0) return;
  const std::shared_ptr<const Fft1D> plan = cached_plan(nx);
  const std::size_t pairs = ny / 2;
  const std::size_t jobs = pairs + (ny % 2);  // a trailing lone row, if odd
  // The packed row is the calling thread's own buffer, which only
  // grows: repeated transforms never touch the general heap.
  thread_local std::vector<cdouble> scratch;
  if (scratch.size() < nx) scratch.resize(nx);
  cdouble* packed = scratch.data();
  for (std::size_t r = 0; r < jobs; ++r) {
    if (r < pairs) {
      const double* row0 = src + (2 * r) * nx;
      const double* row1 = src + (2 * r + 1) * nx;
      for (std::size_t i = 0; i < nx; ++i) packed[i] = {row0[i], row1[i]};
      plan->forward(packed);
      cdouble* out0 = dst + (2 * r) * ld;
      cdouble* out1 = dst + (2 * r + 1) * ld;
      for (std::size_t k = 0; k < cols; ++k) {
        const cdouble t = packed[k];
        const cdouble tm = std::conj(packed[(nx - k) % nx]);
        out0[k] = 0.5 * (t + tm);
        const cdouble d = t - tm;  // X1 = d / (2i) = (-i/2) * d
        out1[k] = {0.5 * d.imag(), -0.5 * d.real()};
      }
    } else {
      // Odd ny: the last row rides alone as a zero-imaginary transform.
      const double* row = src + (ny - 1) * nx;
      for (std::size_t i = 0; i < nx; ++i) packed[i] = {row[i], 0.0};
      plan->forward(packed);
      std::memcpy(dst + (ny - 1) * ld, packed, cols * sizeof(cdouble));
    }
  }
}

/// Fill columns x > nx/2 of a 2D spectrum of a real input from the
/// Hermitian mirror F[y][x] = conj(F[(ny-y)%ny][(nx-x)%nx]).
void mirror_half_2d(cdouble* data, std::size_t ny, std::size_t nx) {
  const std::size_t half = nx / 2;
  for (std::size_t y = 0; y < ny; ++y) {
    cdouble* row = data + y * nx;
    const cdouble* mirror = data + ((ny - y) % ny) * nx;
    for (std::size_t x = half + 1; x < nx; ++x) {
      // x >= 1 here, so (nx - x) % nx == nx - x and stays <= nx/2:
      // the mirrored source column was transformed, never mirrored.
      POR_BOUNDS(nx - x, nx);
      row[x] = std::conj(mirror[nx - x]);
    }
  }
}

/// Rows + the columns x <= nx/2 of a real-input 2D transform, rows `ld`
/// apart in `dst`.  Columns x > nx/2 of `dst` are left unspecified —
/// rfft2d_forward finishes them with the 2D mirror, rfft3d_forward
/// never reads them (it mirrors in 3D after the z pass), and
/// rfft3d_half stores none (ld = nx/2 + 1).
void r2c_plane_half(const double* src, cdouble* dst, std::size_t ny,
                    std::size_t nx, std::size_t ld) {
  r2c_rows(src, dst, ny, nx, ld, nx / 2 + 1);
  fft1d_lines(dst, nx / 2 + 1, ny, ld, /*inverse=*/false);
}

}  // namespace

// ---- 1D batch -------------------------------------------------------------

void fft1d_lines(cdouble* base, std::size_t count, std::size_t n,
                 std::size_t stride, bool inverse) {
  POR_EXPECT(base != nullptr || count * n == 0,
             "fft1d_lines on null buffer: count =", count, "n =", n);
  if (count == 0 || n <= 1) return;  // length-1 DFTs are the identity
  // CONTRACT: line j occupies base + j + i*stride; adjacent lines must
  // not interleave past the stride or the tile gather would alias.
  POR_EXPECT(count <= stride, "line batch wider than its stride:", count, ">",
             stride);
  const std::shared_ptr<const Fft1D> plan = cached_plan(n);
  const std::size_t tiles = (count + kLineTile - 1) / kLineTile;
  // The tile is the calling thread's own buffer, which only grows:
  // warm after the first tile, zero general-heap traffic in the steady
  // state.  The plan's Bluestein path has a buffer of its own.
  thread_local std::vector<cdouble> tile_buf;
  const std::size_t tile_elems = std::min(kLineTile, count) * n;
  if (tile_buf.size() < tile_elems) tile_buf.resize(tile_elems);
  cdouble* scratch = tile_buf.data();
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::size_t j0 = tile * kLineTile;
    const std::size_t width = std::min(kLineTile, count - j0);
    // Gather `width` strided lines into contiguous rows of scratch
    // (scratch[t][i] = line (j0+t), element i): each inner iteration
    // reads one contiguous chunk of `width` complex values.
    cdouble* tile_base = base + j0;
    for (std::size_t i = 0; i < n; ++i) {
      const cdouble* chunk = tile_base + i * stride;
      for (std::size_t t = 0; t < width; ++t) scratch[t * n + i] = chunk[t];
    }
    for (std::size_t t = 0; t < width; ++t) {
      if (inverse) {
        plan->inverse(scratch + t * n);
      } else {
        plan->forward(scratch + t * n);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      cdouble* chunk = tile_base + i * stride;
      for (std::size_t t = 0; t < width; ++t) chunk[t] = scratch[t * n + i];
    }
  }
}

// ---- 2D -------------------------------------------------------------------

namespace {

void fft2d(cdouble* data, std::size_t ny, std::size_t nx, bool inverse) {
  count_transform("fft.2d.transforms", ny * nx);
  fft_rows(data, ny, nx, inverse);
  fft1d_lines(data, nx, ny, nx, inverse);
}

}  // namespace

void fft2d_forward(cdouble* data, std::size_t ny, std::size_t nx) {
  POR_EXPECT(data != nullptr || ny * nx == 0, "fft2d on null buffer");
  fft2d(data, ny, nx, /*inverse=*/false);
}

void fft2d_inverse(cdouble* data, std::size_t ny, std::size_t nx) {
  POR_EXPECT(data != nullptr || ny * nx == 0, "fft2d on null buffer");
  fft2d(data, ny, nx, /*inverse=*/true);
}

void rfft2d_forward(const double* src, cdouble* dst, std::size_t ny,
                    std::size_t nx) {
  POR_EXPECT((src != nullptr && dst != nullptr) || ny * nx == 0,
             "rfft2d on null buffer");
  POR_EXPECT(static_cast<const void*>(src) != static_cast<const void*>(dst),
             "rfft2d src and dst must not alias");
  count_transform("fft.2d.transforms", ny * nx);
  if (ny * nx == 0) return;
  r2c_plane_half(src, dst, ny, nx, nx);
  mirror_half_2d(dst, ny, nx);
}

void rfft2d_pruned(const double* src, cdouble* dst, std::size_t ny,
                   std::size_t nx, std::size_t row_begin, std::size_t row_end,
                   std::size_t cols, std::size_t ld) {
  POR_EXPECT(row_begin <= row_end && row_end <= ny,
             "rfft2d_pruned rows [", row_begin, ",", row_end, ") outside", ny);
  POR_EXPECT(cols <= nx / 2 + 1 && cols <= ld,
             "rfft2d_pruned columns", cols, "exceed the half spectrum or ld");
  if (ny == 0 || nx == 0 || cols == 0) return;
  // Rows pair up as (2r, 2r + 1), with a lone last row when ny is odd.
  // Transform every pair that holds an input row — a pair straddling
  // the input edge still runs as a pair — so [first, last) starts even
  // and ends even or at ny.
  const std::size_t first =
      row_begin == row_end ? 0 : row_begin & ~std::size_t{1};
  const std::size_t last =
      row_begin == row_end ? 0 : std::min(ny, row_end + (row_end & 1));
  r2c_rows(src + first * nx, dst + first * ld, last - first, nx, ld, cols);
  for (std::size_t y = 0; y < ny; ++y) {
    if (y < first || y >= last) {
      std::fill(dst + y * ld, dst + y * ld + cols, cdouble{0.0, 0.0});
    }
  }
  fft1d_lines(dst, cols, ny, ld, /*inverse=*/false);
  detail::obs_handles().nd_points->add((last - first + 1) / 2 * nx + cols * ny);
}

// ---- 3D -------------------------------------------------------------------

namespace {

void fft3d(cdouble* data, std::size_t nz, std::size_t ny, std::size_t nx,
           bool inverse) {
  count_transform("fft.3d.transforms", nz * ny * nx);
  // xy planes first (the paper's step a.3): every row of every plane in
  // one batched pass, then the y-columns plane by plane...
  fft_rows(data, nz * ny, nx, inverse);
  for (std::size_t z = 0; z < nz; ++z) {
    fft1d_lines(data + z * ny * nx, nx, ny, nx, inverse);
  }
  // ...then lines along z.  Line (y, x) starts at offset y*nx + x — the
  // whole pass is one batch of ny*nx adjacent lines of stride ny*nx.
  fft1d_lines(data, ny * nx, nz, ny * nx, inverse);
}

}  // namespace

void fft3d_forward(cdouble* data, std::size_t nz, std::size_t ny,
                   std::size_t nx) {
  POR_EXPECT(data != nullptr || nz * ny * nx == 0, "fft3d on null buffer");
  fft3d(data, nz, ny, nx, /*inverse=*/false);
}

void fft3d_inverse(cdouble* data, std::size_t nz, std::size_t ny,
                   std::size_t nx) {
  POR_EXPECT(data != nullptr || nz * ny * nx == 0, "fft3d on null buffer");
  fft3d(data, nz, ny, nx, /*inverse=*/true);
}

void rfft3d_forward(const double* src, cdouble* dst, std::size_t nz,
                    std::size_t ny, std::size_t nx) {
  POR_EXPECT((src != nullptr && dst != nullptr) || nz * ny * nx == 0,
             "rfft3d on null buffer");
  POR_EXPECT(static_cast<const void*>(src) != static_cast<const void*>(dst),
             "rfft3d src and dst must not alias");
  count_transform("fft.3d.transforms", nz * ny * nx);
  if (nz * ny * nx == 0) return;
  const std::size_t plane = ny * nx;
  const std::size_t half = nx / 2;
  // r2c plane transforms: columns x > nx/2 of each plane stay
  // unspecified — the 3D mirror below derives them from the final
  // spectrum, so the per-plane mirror would be wasted work.
  for (std::size_t z = 0; z < nz; ++z) {
    r2c_plane_half(src + z * plane, dst + z * plane, ny, nx, nx);
  }
  // z lines, only for x <= nx/2: per y, the lines x = 0..nx/2 start at
  // adjacent offsets y*nx + x with stride ny*nx.
  for (std::size_t y = 0; y < ny; ++y) {
    fft1d_lines(dst + y * nx, half + 1, nz, plane, /*inverse=*/false);
  }
  // 3D Hermitian mirror:
  //   F[z][y][x] = conj(F[(nz-z)%nz][(ny-y)%ny][(nx-x)%nx]), x > nx/2.
  for (std::size_t z = 0; z < nz; ++z) {
    const std::size_t mz = (nz - z) % nz;
    for (std::size_t y = 0; y < ny; ++y) {
      cdouble* row = dst + z * plane + y * nx;
      const cdouble* mirror = dst + mz * plane + ((ny - y) % ny) * nx;
      for (std::size_t x = half + 1; x < nx; ++x) {
        // x >= 1 here, so the mirrored column nx - x stays <= nx/2 —
        // always a column the z pass actually transformed.
        POR_BOUNDS(nx - x, nx);
        row[x] = std::conj(mirror[nx - x]);
      }
    }
  }
}

void rfft3d_half(const double* src, cdouble* dst, std::size_t nz,
                 std::size_t ny, std::size_t nx) {
  POR_EXPECT((src != nullptr && dst != nullptr) || nz * ny * nx == 0,
             "rfft3d_half on null buffer");
  count_transform("fft.3d.transforms", nz * ny * nx);
  if (nz * ny * nx == 0) return;
  const std::size_t hx = nx / 2 + 1;
  for (std::size_t z = 0; z < nz; ++z) {
    r2c_plane_half(src + z * ny * nx, dst + z * ny * hx, ny, nx, hx);
  }
  // In the compact layout every (y, kx) line along z starts at an
  // adjacent offset: the z pass is one batch of ny*hx lines.
  fft1d_lines(dst, ny * hx, nz, ny * hx, /*inverse=*/false);
}

void irfft_rows(const cdouble* src, double* dst, std::size_t rows,
                std::size_t nx) {
  POR_EXPECT((src != nullptr && dst != nullptr) || rows * nx == 0,
             "irfft_rows on null buffer");
  if (rows == 0 || nx == 0) return;
  const std::shared_ptr<const Fft1D> plan = cached_plan(nx);
  const std::size_t hx = nx / 2 + 1;
  // The inverse of r2c_rows' packing: for half spectra A, B of two
  // real rows a, b, the complex line A + i*B (each extended by its
  // Hermitian mirror) inverse-transforms to a + i*b.  Bin 0 and, for
  // even nx, bin nx/2 are their own mirrors, so only their real parts
  // belong to a Hermitian spectrum.
  const std::size_t last = (nx - 1) / 2;  // highest bin with a distinct mirror
  // The packed line is the calling thread's own buffer, which only
  // grows: repeated transforms never touch the general heap.
  thread_local std::vector<cdouble> scratch;
  if (scratch.size() < nx) scratch.resize(nx);
  cdouble* packed = scratch.data();
  for (std::size_t r = 0; r < rows; r += 2) {
    const bool pair = r + 1 < rows;
    const cdouble* a = src + r * hx;
    const cdouble* b = pair ? a + hx : nullptr;
    const auto bin = [&](std::size_t k) {
      return pair ? b[k] : cdouble{0.0, 0.0};
    };
    packed[0] = {a[0].real(), bin(0).real()};
    for (std::size_t k = 1; k <= last; ++k) {
      const cdouble ak = a[k], bk = bin(k);
      packed[k] = {ak.real() - bk.imag(), ak.imag() + bk.real()};
      packed[nx - k] = {ak.real() + bk.imag(), bk.real() - ak.imag()};
    }
    if (nx % 2 == 0) packed[nx / 2] = {a[nx / 2].real(), bin(nx / 2).real()};
    plan->inverse(packed);
    double* out0 = dst + r * nx;
    for (std::size_t i = 0; i < nx; ++i) out0[i] = packed[i].real();
    if (pair) {
      double* out1 = out0 + nx;
      for (std::size_t i = 0; i < nx; ++i) out1[i] = packed[i].imag();
    }
  }
}

}  // namespace por::fft
