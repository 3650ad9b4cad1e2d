// POR_HOT_PATH
//
// AVX2 + FMA kernel tier.  Matcher kernels consume the interleaved
// (re, im) lattice: one 256-bit load covers both components of an
// (x, x+1) corner pair, so a trilinear cell is 4 corner loads.
//
// Tolerance policy (DESIGN.md §12): this tier uses FMA, a vector
// association inside each cell, and four rotating accumulators in the
// annulus sum (fixed k mod 4 partition — deterministic), so per-term
// rounding and regrouping differ from the scalar reference by last-ulp
// amounts; the whole tier is gated at 1e-12 against the scalar oracle
// by tests/test_simd.cpp and bench_matcher's divergence gate.
//
// This TU is compiled with -mavx2 -mfma (see src/CMakeLists.txt).  If
// the compiler lacks those flags the guard below compiles the TU down
// to a null table and dispatch falls back to SSE2.

#include "por/simd/kernels.hpp"

#include "por/util/contracts.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace por::simd {

namespace {

void stage_avx2(const StageBlock& blk) {
  // Scalar staging (AVX2 lacks the 64-bit int<->double conversions the
  // AVX-512 tier vectorizes with).  The compiler may contract these
  // expressions with FMA; a contraction-flipped truncation boundary
  // moves the sample to the adjacent cell with t ~ 1-ulp, and
  // interpolation continuity bounds the value change to ulp scale —
  // inside the tier's 1e-12 budget.
  //
  // No stage-time prefetch (see the AVX-512 tier): the consume loop
  // prefetches a short distance ahead instead.
  for (std::size_t k = 0; k < blk.count; ++k) {
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
  }
}

/// Fetch one trilinear cell from the interleaved lattice.  Returns the
/// (re, im) accumulator still packed as [re@x0, im@x0, re@x1, im@x1];
/// callers reduce the two 128-bit halves.
inline __m256d cell_acc(const double* lat, std::size_t stride_y,
                        std::size_t stride_z, std::size_t base, double tz,
                        double ty, double tx) {
  const double* p = lat + 2 * base;
  const __m256d row00 = _mm256_loadu_pd(p);
  const __m256d row01 = _mm256_loadu_pd(p + 2 * stride_y);
  const __m256d row10 = _mm256_loadu_pd(p + 2 * stride_z);
  const __m256d row11 = _mm256_loadu_pd(p + 2 * (stride_z + stride_y));

  const double wz0 = 1.0 - tz, wy0 = 1.0 - ty;
  const double w00 = wz0 * wy0, w01 = wz0 * ty;
  const double w10 = tz * wy0, w11 = tz * ty;
  // Lanes are [x0, x0, x1, x1]; set_pd lists high lane first.
  const __m256d wxv = _mm256_set_pd(tx, tx, 1.0 - tx, 1.0 - tx);

  __m256d acc = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(w11), wxv), row11);
  acc = _mm256_fmadd_pd(_mm256_mul_pd(_mm256_set1_pd(w10), wxv), row10, acc);
  acc = _mm256_fmadd_pd(_mm256_mul_pd(_mm256_set1_pd(w01), wxv), row01, acc);
  acc = _mm256_fmadd_pd(_mm256_mul_pd(_mm256_set1_pd(w00), wxv), row00, acc);
  return acc;
}

inline __m128d reduce_cell(__m256d acc) {
  return _mm_add_pd(_mm256_castpd256_pd128(acc),
                    _mm256_extractf128_pd(acc, 1));
}

CellSample trilinear_avx2(const double* lat, std::size_t stride_y,
                          std::size_t stride_z, std::size_t base,
                          double tz, double ty, double tx) {
  const __m128d s =
      reduce_cell(cell_acc(lat, stride_y, stride_z, base, tz, ty, tx));
  CellSample out;
  out.re = _mm_cvtsd_f64(s);
  out.im = _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  return out;
}

/// One pixel of the consume loop, all in xmm [re, im] pairs (see the
/// AVX-512 tier for the rotating-accumulator rationale).
template <bool kTransfer>
inline void consume_px(const double* lat, std::size_t stride_y,
                       std::size_t stride_z, const AnnulusBlock& blk,
                       std::size_t k, __m128d& a) {
  __m128d s = reduce_cell(cell_acc(lat, stride_y, stride_z, blk.base[k],
                                   blk.tz[k], blk.ty[k], blk.tx[k]));
  if constexpr (kTransfer) s = _mm_mul_pd(s, _mm_set1_pd(blk.transfer[k]));
  const __m128d v =
      _mm_loadu_pd(blk.view + 2 * static_cast<std::size_t>(blk.index[k]));
  const __m128d d = _mm_sub_pd(v, s);
  a = _mm_fmadd_pd(_mm_mul_pd(d, d), _mm_set1_pd(blk.weight[k]), a);
}

template <bool kTransfer>
double annulus_run(const double* lat, std::size_t stride_y,
                   std::size_t stride_z, std::size_t lat_cells,
                   const AnnulusBlock& blk, double acc) {
#if POR_CONTRACTS_ENABLED
  for (std::size_t j = 0; j < blk.count; ++j) {
    POR_BOUNDS(blk.base[j] + stride_z + stride_y + 1, lat_cells);
  }
#else
  (void)lat_cells;
#endif
  // Four rotating [sum dre^2, sum dim^2] accumulators (fixed k mod 4
  // partition — deterministic; regrouping vs the scalar oracle is ulp-
  // level and covered by the 1e-12 gate, DESIGN.md §12).
  __m128d a0 = _mm_setzero_pd(), a1 = _mm_setzero_pd();
  __m128d a2 = _mm_setzero_pd(), a3 = _mm_setzero_pd();
  // Prefetch the four corner lines of the pixel ~16 ahead (see the
  // AVX-512 tier for the distance rationale).
  constexpr std::size_t kPfDist = 16;
  std::size_t k = 0;
  for (; k + 4 <= blk.count; k += 4) {
    const std::size_t pj = k + kPfDist < blk.count ? k + kPfDist : blk.count - 1;
    const double* pp = lat + 2 * blk.base[pj];
    _mm_prefetch(reinterpret_cast<const char*>(pp), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(pp + 2 * stride_y), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(pp + 2 * stride_z), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(pp + 2 * (stride_z + stride_y)),
                 _MM_HINT_T0);
    consume_px<kTransfer>(lat, stride_y, stride_z, blk, k, a0);
    consume_px<kTransfer>(lat, stride_y, stride_z, blk, k + 1, a1);
    consume_px<kTransfer>(lat, stride_y, stride_z, blk, k + 2, a2);
    consume_px<kTransfer>(lat, stride_y, stride_z, blk, k + 3, a3);
  }
  for (; k < blk.count; ++k) {
    consume_px<kTransfer>(lat, stride_y, stride_z, blk, k, a0);
  }
  const __m128d t = _mm_add_pd(_mm_add_pd(a0, a1), _mm_add_pd(a2, a3));
  return acc + _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t));
}

double annulus_avx2(const double* lat, std::size_t stride_y,
                    std::size_t stride_z, std::size_t lat_cells,
                    const AnnulusBlock& blk, double acc) {
  return blk.transfer != nullptr
             ? annulus_run<true>(lat, stride_y, stride_z, lat_cells, blk, acc)
             : annulus_run<false>(lat, stride_y, stride_z, lat_cells, blk,
                                  acc);
}

void fft_stage_avx2(double* d, std::size_t n, std::size_t half,
                    const double* tw) {
  if (half == 1) {
    // w = 1: pure add/sub over adjacent complex pairs.
    for (std::size_t block = 0; block < n; block += 2) {
      double* p = d + 2 * block;
      const double er = p[0], ei = p[1], xr = p[2], xi = p[3];
      p[0] = er + xr;
      p[1] = ei + xi;
      p[2] = er - xr;
      p[3] = ei - xi;
    }
    return;
  }
  // Two butterflies per ymm.  The complex product uses the fmaddsub
  // idiom: odd = [wr*xr - wi*xi, wr*xi + wi*xr].
  const std::size_t len = 2 * half;
  for (std::size_t block = 0; block < n; block += len) {
    double* lo = d + 2 * block;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; k += 2) {
      const __m256d w = _mm256_loadu_pd(tw + 2 * k);
      const __m256d x = _mm256_loadu_pd(hi + 2 * k);
      const __m256d wr = _mm256_movedup_pd(w);
      const __m256d wi = _mm256_permute_pd(w, 0xF);
      const __m256d xs = _mm256_permute_pd(x, 0x5);
      const __m256d odd = _mm256_fmaddsub_pd(wr, x, _mm256_mul_pd(wi, xs));
      const __m256d e = _mm256_loadu_pd(lo + 2 * k);
      _mm256_storeu_pd(lo + 2 * k, _mm256_add_pd(e, odd));
      _mm256_storeu_pd(hi + 2 * k, _mm256_sub_pd(e, odd));
    }
  }
}

void cmul_avx2(double* a, const double* b, std::size_t n) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d x = _mm256_loadu_pd(a + 2 * k);
    const __m256d y = _mm256_loadu_pd(b + 2 * k);
    const __m256d br = _mm256_movedup_pd(y);
    const __m256d bi = _mm256_permute_pd(y, 0xF);
    const __m256d xs = _mm256_permute_pd(x, 0x5);
    _mm256_storeu_pd(a + 2 * k,
                     _mm256_fmaddsub_pd(br, x, _mm256_mul_pd(bi, xs)));
  }
  for (; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    a[2 * k] = ar * br - ai * bi;
    a[2 * k + 1] = ar * bi + ai * br;
  }
}

void cmul_conj_avx2(double* dst, const double* src, const double* c,
                    std::size_t n) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d x = _mm256_loadu_pd(src + 2 * k);
    const __m256d cc = _mm256_loadu_pd(c + 2 * k);
    const __m256d cr = _mm256_movedup_pd(cc);
    const __m256d ci = _mm256_permute_pd(cc, 0xF);
    const __m256d xs = _mm256_permute_pd(x, 0x5);
    // fmsubadd: even lanes cr*xr + ci*xi, odd lanes cr*xi - ci*xr.
    _mm256_storeu_pd(dst + 2 * k,
                     _mm256_fmsubadd_pd(cr, x, _mm256_mul_pd(ci, xs)));
  }
  for (; k < n; ++k) {
    const double xr = src[2 * k], xi = src[2 * k + 1];
    const double rr = c[2 * k], ri = c[2 * k + 1];
    dst[2 * k] = xr * rr + xi * ri;
    dst[2 * k + 1] = xi * rr - xr * ri;
  }
}

const KernelTable kAvx2Table = {
    Isa::kAvx2,
    &stage_avx2,
    &annulus_avx2,
    &trilinear_avx2,
    &fft_stage_avx2,
    &cmul_avx2,
    &cmul_conj_avx2,
};

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace por::simd

#else  // !(__AVX2__ && __FMA__)

namespace por::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace por::simd::detail

#endif
