// POR_HOT_PATH
//
// SSE2 (baseline) kernel tier.  Compiled with the default flags, so it
// runs on every x86-64; on non-x86 the same entry points compile to
// the portable scalar bodies.  This tier is the BIT-IDENTICAL
// continuation of the pre-dispatch hot paths: the annulus consume loop
// reproduces por/em/interp.hpp's interp_trilinear_cell SSE2 sequence
// and matcher.cpp's historical accumulation ordering exactly, and the
// butterfly stage reproduces fft1d.cpp's raw-double loop (the
// contiguous twiddle table holds the very same doubles the strided
// root walk used to read).  tests/test_simd.cpp asserts the
// bit-equality against em::interp_trilinear_cell.

#include "por/simd/kernels.hpp"

#include "por/util/contracts.hpp"

#if defined(__SSE2__) || defined(_M_X64)
#define POR_KERNEL_SSE2 1
#include <emmintrin.h>
#endif

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
    // Neighboring annulus pixels usually land in the same 64-byte
    // line; when the base line repeats, all corner lines repeat with
    // it, so skip the whole batch instead of burning load-port slots
    // on duplicate prefetches.
    const std::size_t line = (base * blk.pf_scale) >> 3;
    if (line != last_line) {
      last_line = line;
      const std::size_t sy = blk.stride_y * blk.pf_scale;
      const std::size_t sz = blk.stride_z * blk.pf_scale;
      const std::size_t b = base * blk.pf_scale;
      __builtin_prefetch(blk.pf_a + b, 0, 3);
      __builtin_prefetch(blk.pf_a + b + sy, 0, 3);
      __builtin_prefetch(blk.pf_a + b + sz, 0, 3);
      __builtin_prefetch(blk.pf_a + b + sz + sy, 0, 3);
      if (blk.pf_b != nullptr) {
        __builtin_prefetch(blk.pf_b + b, 0, 3);
        __builtin_prefetch(blk.pf_b + b + sy, 0, 3);
        __builtin_prefetch(blk.pf_b + b + sz, 0, 3);
        __builtin_prefetch(blk.pf_b + b + sz + sy, 0, 3);
      }
    }
#endif
  }
  *blk.last_line = last_line;
}

CellSample trilinear_split_sse2(const double* re, const double* im,
                                std::size_t stride_y, std::size_t stride_z,
                                std::size_t base, double tz, double ty,
                                double tx) {
  const std::size_t i000 = base;
  const std::size_t i010 = base + stride_y;
  const std::size_t i100 = base + stride_z;
  const std::size_t i110 = base + stride_z + stride_y;

  // Weight products in the reference's association order ((wz*wy)*wx).
  const double wz0 = 1.0 - tz, wz1 = tz;
  const double wy0 = 1.0 - ty, wy1 = ty;
  const double wx0 = 1.0 - tx, wx1 = tx;
  const double w00 = wz0 * wy0, w01 = wz0 * wy1;
  const double w10 = wz1 * wy0, w11 = wz1 * wy1;

  CellSample s;
#if POR_KERNEL_SSE2
  // The (x, x+1) corner pairs are contiguous in each plane, so the
  // eight corners of a plane are four unaligned 16-byte loads.  This
  // is em::interp_trilinear_cell's SSE2 sequence verbatim — same
  // operations, same association — kept bit-identical by test_simd.
  const __m128d wx = _mm_set_pd(wx1, wx0);  // lane0 = wx0, lane1 = wx1
  const __m128d w00v = _mm_mul_pd(_mm_set1_pd(w00), wx);
  const __m128d w01v = _mm_mul_pd(_mm_set1_pd(w01), wx);
  const __m128d w10v = _mm_mul_pd(_mm_set1_pd(w10), wx);
  const __m128d w11v = _mm_mul_pd(_mm_set1_pd(w11), wx);
  const __m128d re_acc = _mm_add_pd(
      _mm_add_pd(_mm_mul_pd(w00v, _mm_loadu_pd(re + i000)),
                 _mm_mul_pd(w01v, _mm_loadu_pd(re + i010))),
      _mm_add_pd(_mm_mul_pd(w10v, _mm_loadu_pd(re + i100)),
                 _mm_mul_pd(w11v, _mm_loadu_pd(re + i110))));
  const __m128d im_acc = _mm_add_pd(
      _mm_add_pd(_mm_mul_pd(w00v, _mm_loadu_pd(im + i000)),
                 _mm_mul_pd(w01v, _mm_loadu_pd(im + i010))),
      _mm_add_pd(_mm_mul_pd(w10v, _mm_loadu_pd(im + i100)),
                 _mm_mul_pd(w11v, _mm_loadu_pd(im + i110))));
  const __m128d packed = _mm_add_pd(_mm_unpacklo_pd(re_acc, im_acc),
                                    _mm_unpackhi_pd(re_acc, im_acc));
  s.re = _mm_cvtsd_f64(packed);
  s.im = _mm_cvtsd_f64(_mm_unpackhi_pd(packed, packed));
#else
  const double w000 = w00 * wx0, w001 = w00 * wx1;
  const double w010 = w01 * wx0, w011 = w01 * wx1;
  const double w100 = w10 * wx0, w101 = w10 * wx1;
  const double w110 = w11 * wx0, w111 = w11 * wx1;
  s.re = ((w000 * re[i000] + w001 * re[i000 + 1]) +
          (w010 * re[i010] + w011 * re[i010 + 1])) +
         ((w100 * re[i100] + w101 * re[i100 + 1]) +
          (w110 * re[i110] + w111 * re[i110 + 1]));
  s.im = ((w000 * im[i000] + w001 * im[i000 + 1]) +
          (w010 * im[i010] + w011 * im[i010 + 1])) +
         ((w100 * im[i100] + w101 * im[i100 + 1]) +
          (w110 * im[i110] + w111 * im[i110 + 1]));
#endif
  return s;
}

template <bool kTransfer>
double annulus_split_run(const double* re, const double* im,
                         std::size_t stride_y, std::size_t stride_z,
                         std::size_t lat_size, const AnnulusBlock& blk,
                         double acc) {
  double sum = acc;
  for (std::size_t k = 0; k < blk.count; ++k) {
    // The +1,+1,+1 corner is the largest index the fetch touches; if
    // it is inside the padded plane, all eight corners are.
    POR_BOUNDS(blk.base[k] + stride_z + stride_y + 1, lat_size);
    const CellSample s = trilinear_split_sse2(re, im, stride_y, stride_z,
                                              blk.base[k], blk.tz[k],
                                              blk.ty[k], blk.tx[k]);
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

double annulus_split_sse2(const double* re, const double* im,
                          std::size_t stride_y, std::size_t stride_z,
                          std::size_t lat_size, const AnnulusBlock& blk,
                          double acc) {
  return blk.transfer != nullptr
             ? annulus_split_run<true>(re, im, stride_y, stride_z, lat_size,
                                       blk, acc)
             : annulus_split_run<false>(re, im, stride_y, stride_z, lat_size,
                                        blk, acc);
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
    LatticeLayout::kSplit,
    &stage_sse2,
    &annulus_split_sse2,
    nullptr,
    &trilinear_split_sse2,
    nullptr,
    &fft_stage_sse2,
    &cmul_sse2,
    &cmul_conj_sse2,
};

}  // namespace

namespace detail {
const KernelTable* sse2_table() { return &kSse2Table; }
}  // namespace detail

}  // namespace por::simd
