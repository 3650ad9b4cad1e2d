// POR_HOT_PATH
//
// SSE2 (baseline) kernel tier.  Compiled with the default flags, so it
// runs on every x86-64, and written in plain C++ so the same bodies
// serve any other target.  This tier is the BIT-IDENTICAL continuation
// of the pre-dispatch hot paths: the cell fetch keeps the per-lane
// operations and association of the original packed SSE2 sequence,
// the annulus consume loop matcher.cpp's historical accumulation
// ordering, and the butterfly stage fft1d.cpp's raw-double loop (the
// contiguous twiddle table holds the very same doubles the strided
// root walk used to read).  tests/test_simd.cpp asserts the fetch's
// bits against a scalar oracle written in the same association.

#include "por/simd/kernels.hpp"

#include "por/util/contracts.hpp"

namespace por::simd {

namespace {

void stage_sse2(const StageBlock& blk) {
  std::size_t last_line = *blk.last_line;
  for (std::size_t k = 0; k < blk.count; ++k) {
    // q + c >= c - r_max >= 0.5 under the matcher's fast-path guard,
    // so the size_t truncation is a floor.  Left-to-right evaluation
    // matches the pre-dispatch stage lambda bit for bit.
    const double z = blk.ku[k] * blk.euz + blk.kv[k] * blk.evz + blk.c;
    const double y = blk.ku[k] * blk.euy + blk.kv[k] * blk.evy + blk.c;
    const double x = blk.ku[k] * blk.eux + blk.kv[k] * blk.evx + blk.c;
    const std::size_t iz = static_cast<std::size_t>(z);
    const std::size_t iy = static_cast<std::size_t>(y);
    const std::size_t ix = static_cast<std::size_t>(x);
    const std::size_t base =
        iz * blk.stride_z + iy * blk.stride_y + ix - blk.origin_cell;
    blk.base[k] = base;
    blk.tz[k] = z - static_cast<double>(iz);
    blk.ty[k] = y - static_cast<double>(iy);
    blk.tx[k] = x - static_cast<double>(ix);
#if defined(__GNUC__) || defined(__clang__)
    // Prefetch the cell's four corner rows one block ahead of the
    // consume loop (dropping it costs this tier ~1.4x per matching,
    // EXPERIMENTS.md "SSE2 staging prefetch").  Neighboring annulus
    // pixels usually land in the same 64-byte line (four complex
    // cells); when the base line repeats, all corner lines repeat with
    // it, so skip the whole batch instead of burning load-port slots on
    // duplicates.
    const std::size_t line = base >> 2;
    if (line != last_line) {
      last_line = line;
      const double* p = blk.lat + 2 * base;
      __builtin_prefetch(p, 0, 3);
      __builtin_prefetch(p + 2 * blk.stride_y, 0, 3);
      __builtin_prefetch(p + 2 * blk.stride_z, 0, 3);
      __builtin_prefetch(p + 2 * (blk.stride_z + blk.stride_y), 0, 3);
    }
#endif
  }
  *blk.last_line = last_line;
}

/// Trilinear fetch of one cell of the interleaved lattice.  Each row
/// pointer addresses an (x, x+1) corner pair [re0, im0, re1, im1].
/// The association is the original packed sequence's: the x0 lane and
/// the x1 lane each sum their four rows as ((z0y0 + z0y1) + (z1y0 +
/// z1y1)), with corner weights ((wz*wy)*wx), and the two lanes are
/// added last.  This TU is built without FMA, so nothing contracts.
CellSample trilinear_sse2(const double* lat, std::size_t stride_y,
                          std::size_t stride_z, std::size_t base, double tz,
                          double ty, double tx) {
  const double* r00 = lat + 2 * base;
  const double* r01 = lat + 2 * (base + stride_y);
  const double* r10 = lat + 2 * (base + stride_z);
  const double* r11 = lat + 2 * (base + stride_z + stride_y);

  const double wz0 = 1.0 - tz, wy0 = 1.0 - ty, wx0 = 1.0 - tx;
  const double w00 = wz0 * wy0, w01 = wz0 * ty;
  const double w10 = tz * wy0, w11 = tz * ty;
  const double a0 = w00 * wx0, a1 = w01 * wx0, a2 = w10 * wx0, a3 = w11 * wx0;
  const double b0 = w00 * tx, b1 = w01 * tx, b2 = w10 * tx, b3 = w11 * tx;

  CellSample s;
  s.re = ((a0 * r00[0] + a1 * r01[0]) + (a2 * r10[0] + a3 * r11[0])) +
         ((b0 * r00[2] + b1 * r01[2]) + (b2 * r10[2] + b3 * r11[2]));
  s.im = ((a0 * r00[1] + a1 * r01[1]) + (a2 * r10[1] + a3 * r11[1])) +
         ((b0 * r00[3] + b1 * r01[3]) + (b2 * r10[3] + b3 * r11[3]));
  return s;
}

template <bool kTransfer>
double annulus_run(const double* lat, std::size_t stride_y,
                   std::size_t stride_z, std::size_t lat_cells,
                   const AnnulusBlock& blk, double acc) {
  double sum = acc;
  for (std::size_t k = 0; k < blk.count; ++k) {
    // The +1,+1,+1 corner is the largest cell the fetch touches; if it
    // is inside the padded lattice, all eight corners are.
    POR_BOUNDS(blk.base[k] + stride_z + stride_y + 1, lat_cells);
    const CellSample s = trilinear_sse2(lat, stride_y, stride_z, blk.base[k],
                                        blk.tz[k], blk.ty[k], blk.tx[k]);
    double sre = s.re, sim = s.im;
    if constexpr (kTransfer) {
      const double t = blk.transfer[k];
      sre *= t;
      sim *= t;
    }
    const double* v = blk.view + 2 * static_cast<std::size_t>(blk.index[k]);
    const double dre = v[0] - sre;
    const double dim = v[1] - sim;
    sum += (dre * dre + dim * dim) * blk.weight[k];
  }
  return sum;
}

double annulus_sse2(const double* lat, std::size_t stride_y,
                    std::size_t stride_z, std::size_t lat_cells,
                    const AnnulusBlock& blk, double acc) {
  return blk.transfer != nullptr
             ? annulus_run<true>(lat, stride_y, stride_z, lat_cells, blk, acc)
             : annulus_run<false>(lat, stride_y, stride_z, lat_cells, blk,
                                  acc);
}

void fft_stage_sse2(double* d, std::size_t n, std::size_t half,
                    const double* tw) {
  // fft1d.cpp's historical butterfly loop, reading the contiguous
  // per-stage twiddles (identical doubles to the old strided walk).
  const std::size_t len = 2 * half;
  for (std::size_t block = 0; block < n; block += len) {
    double* lo = d + 2 * block;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; ++k) {
      const double wr = tw[2 * k];
      const double wi = tw[2 * k + 1];
      const double xr = hi[2 * k];
      const double xi = hi[2 * k + 1];
      const double odd_r = xr * wr - xi * wi;
      const double odd_i = xr * wi + xi * wr;
      const double er = lo[2 * k];
      const double ei = lo[2 * k + 1];
      lo[2 * k] = er + odd_r;
      lo[2 * k + 1] = ei + odd_i;
      hi[2 * k] = er - odd_r;
      hi[2 * k + 1] = ei - odd_i;
    }
  }
}

void cmul_sse2(double* a, const double* b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    a[2 * k] = ar * br - ai * bi;
    a[2 * k + 1] = ar * bi + ai * br;
  }
}

void cmul_conj_sse2(double* dst, const double* src, const double* c,
                    std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double xr = src[2 * k], xi = src[2 * k + 1];
    const double cr = c[2 * k], ci = c[2 * k + 1];
    dst[2 * k] = xr * cr + xi * ci;
    dst[2 * k + 1] = xi * cr - xr * ci;
  }
}

const KernelTable kSse2Table = {
    Isa::kSse2,
    &stage_sse2,
    &annulus_sse2,
    &trilinear_sse2,
    &fft_stage_sse2,
    &cmul_sse2,
    &cmul_conj_sse2,
};

}  // namespace

namespace detail {
const KernelTable* sse2_table() { return &kSse2Table; }
}  // namespace detail

}  // namespace por::simd
