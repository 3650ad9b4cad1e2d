// POR_HOT_PATH
//
// AVX-512 F+DQ kernel tier.  Beyond the AVX2 tier's interleaved-
// lattice consume loop (here two corner rows per zmm), this tier
// vectorizes the STAGING pass eight pixels at a time: DQ supplies the
// 64-bit double<->int conversions (_mm512_cvttpd_epi64 /
// _mm512_cvtepi64_pd) and the 64-bit multiply (_mm512_mullo_epi64)
// that cell-address generation needs.
//
// Same tolerance policy as the AVX2 tier (DESIGN.md §12): FMA + vector
// association inside a cell, four rotating annulus accumulators with a
// fixed k mod 4 partition, gated at 1e-12 against the scalar oracle.
//
// Compiled with -mavx512f -mavx512dq -mavx2 -mfma; compiles to a null
// table when the compiler lacks the flags.

#include "por/simd/kernels.hpp"

#include "por/util/contracts.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__FMA__)

#include <immintrin.h>

namespace por::simd {

namespace {

void stage_avx512(const StageBlock& blk) {
  const __m512d euz = _mm512_set1_pd(blk.euz), evz = _mm512_set1_pd(blk.evz);
  const __m512d euy = _mm512_set1_pd(blk.euy), evy = _mm512_set1_pd(blk.evy);
  const __m512d eux = _mm512_set1_pd(blk.eux), evx = _mm512_set1_pd(blk.evx);
  const __m512d cv = _mm512_set1_pd(blk.c);
  const __m512i sy = _mm512_set1_epi64(static_cast<long long>(blk.stride_y));
  const __m512i sz = _mm512_set1_epi64(static_cast<long long>(blk.stride_z));
  const __m512i origin =
      _mm512_set1_epi64(static_cast<long long>(blk.origin_cell));
  std::size_t k = 0;
  for (; k + 8 <= blk.count; k += 8) {
    const __m512d ku = _mm512_loadu_pd(blk.ku + k);
    const __m512d kv = _mm512_loadu_pd(blk.kv + k);
    const __m512d z = _mm512_add_pd(
        _mm512_fmadd_pd(ku, euz, _mm512_mul_pd(kv, evz)), cv);
    const __m512d y = _mm512_add_pd(
        _mm512_fmadd_pd(ku, euy, _mm512_mul_pd(kv, evy)), cv);
    const __m512d x = _mm512_add_pd(
        _mm512_fmadd_pd(ku, eux, _mm512_mul_pd(kv, evx)), cv);
    // Coordinates are >= 0.5 under the fast-path guard, so truncation
    // toward zero IS the floor.
    const __m512i iz = _mm512_cvttpd_epi64(z);
    const __m512i iy = _mm512_cvttpd_epi64(y);
    const __m512i ix = _mm512_cvttpd_epi64(x);
    const __m512i base = _mm512_sub_epi64(
        _mm512_add_epi64(_mm512_add_epi64(_mm512_mullo_epi64(iz, sz),
                                          _mm512_mullo_epi64(iy, sy)),
                         ix),
        origin);
    _mm512_storeu_si512(blk.base + k, base);
    _mm512_storeu_pd(blk.tz + k, _mm512_sub_pd(z, _mm512_cvtepi64_pd(iz)));
    _mm512_storeu_pd(blk.ty + k, _mm512_sub_pd(y, _mm512_cvtepi64_pd(iy)));
    _mm512_storeu_pd(blk.tx + k, _mm512_sub_pd(x, _mm512_cvtepi64_pd(ix)));
  }
  for (; k < blk.count; ++k) {
    const double z = blk.ku[k] * blk.euz + blk.kv[k] * blk.evz + blk.c;
    const double y = blk.ku[k] * blk.euy + blk.kv[k] * blk.evy + blk.c;
    const double x = blk.ku[k] * blk.eux + blk.kv[k] * blk.evx + blk.c;
    const std::size_t iz = static_cast<std::size_t>(z);
    const std::size_t iy = static_cast<std::size_t>(y);
    const std::size_t ix = static_cast<std::size_t>(x);
    blk.base[k] =
        iz * blk.stride_z + iy * blk.stride_y + ix - blk.origin_cell;
    blk.tz[k] = z - static_cast<double>(iz);
    blk.ty[k] = y - static_cast<double>(iy);
    blk.tx[k] = x - static_cast<double>(ix);
  }
  // No stage-time prefetch on this tier: issuing the whole block's
  // corner lines here overran L1 and the prefetch uops competed with
  // the consume loop's demand loads for fill buffers — measurably
  // SLOWER than letting the consume loop prefetch a short distance
  // ahead (see annulus_run) with the hardware stream prefetchers
  // covering the four forward-strided corner-row streams.
}

/// Trilinear cell on the interleaved lattice, both z-planes in one
/// fused chain: zmm A = [row z0/y0 | row z0/y1], zmm B = [row z1/y0 |
/// row z1/y1], acc = A*wA + B*wB.  The per-lane weights are built with
/// masked subtracts from broadcasts (no 8-element set_pd, no ymm
/// inserts) to keep shuffle-port pressure down — the weight product is
/// associated (wx*wy)*wz here, ulp-level different from the scalar
/// oracle's (wz*wy)*wx and covered by the 1e-12 gate (DESIGN.md §12).
inline __m128d cell_reduce(const double* lat, std::size_t stride_y,
                           std::size_t stride_z, std::size_t base,
                           double tz, double ty, double tx) {
  const double* p = lat + 2 * base;
  const __m512d rows_a = _mm512_insertf64x4(
      _mm512_zextpd256_pd512(_mm256_loadu_pd(p)),
      _mm256_loadu_pd(p + 2 * stride_y), 1);
  const double* q = p + 2 * stride_z;
  const __m512d rows_b = _mm512_insertf64x4(
      _mm512_zextpd256_pd512(_mm256_loadu_pd(q)),
      _mm256_loadu_pd(q + 2 * stride_y), 1);

  const __m512d ones = _mm512_set1_pd(1.0);
  // wxv: [wx0, wx0, tx, tx | wx0, wx0, tx, tx] — 1-tx in lanes 0,1,4,5.
  const __m512d txv = _mm512_set1_pd(tx);
  const __m512d wxv = _mm512_mask_sub_pd(txv, 0x33, ones, txv);
  // wyv: [wy0 x4 | ty x4] — 1-ty in the low half.
  const __m512d tyv = _mm512_set1_pd(ty);
  const __m512d wyv = _mm512_mask_sub_pd(tyv, 0x0F, ones, tyv);
  const __m512d wxy = _mm512_mul_pd(wxv, wyv);
  // Broadcast tz then take 1-tz as a vector sub: one memory-source
  // broadcast + one sub on the FMA ports, instead of a scalar sub plus
  // two register broadcasts on the shuffle port.
  const __m512d tzv = _mm512_set1_pd(tz);
  const __m512d wzv = _mm512_sub_pd(ones, tzv);

  const __m512d acc =
      _mm512_fmadd_pd(rows_a, _mm512_mul_pd(wxy, wzv),
                      _mm512_mul_pd(rows_b, _mm512_mul_pd(wxy, tzv)));
  const __m256d half = _mm256_add_pd(_mm512_castpd512_pd256(acc),
                                     _mm512_extractf64x4_pd(acc, 1));
  return _mm_add_pd(_mm256_castpd256_pd128(half),
                    _mm256_extractf128_pd(half, 1));
}

CellSample trilinear_avx512(const double* lat, std::size_t stride_y,
                            std::size_t stride_z, std::size_t base,
                            double tz, double ty, double tx) {
  const __m128d s = cell_reduce(lat, stride_y, stride_z, base, tz, ty, tx);
  CellSample out;
  out.re = _mm_cvtsd_f64(s);
  out.im = _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  return out;
}

/// One pixel of the consume loop: trilinear sample, optional transfer
/// scale, view diff and squared-magnitude FMA into `a` — all in xmm
/// [re, im] pairs, never dropping to scalar.
template <bool kTransfer>
inline void consume_px(const double* lat, std::size_t stride_y,
                       std::size_t stride_z, const AnnulusBlock& blk,
                       std::size_t k, __m128d& a) {
  __m128d s = cell_reduce(lat, stride_y, stride_z, blk.base[k], blk.tz[k],
                          blk.ty[k], blk.tx[k]);
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
  // Four rotating [sum dre^2, sum dim^2] accumulators: the only serial
  // dependence is one FMA per accumulator every fourth pixel, so the
  // FMA latency never gates throughput.  The partition is fixed (k mod
  // 4), so the result is deterministic; the regrouping relative to the
  // scalar oracle's single running sum is ulp-level and covered by the
  // 1e-12 gate (DESIGN.md §12).
  __m128d a0 = _mm_setzero_pd(), a1 = _mm_setzero_pd();
  __m128d a2 = _mm_setzero_pd(), a3 = _mm_setzero_pd();
  // Prefetch distance in pixels: far enough ahead of the consume loop
  // (~10 ns/px) to cover an L2/L3 hit, near enough that the lines are
  // still resident when reached.
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

double annulus_avx512(const double* lat, std::size_t stride_y,
                      std::size_t stride_z, std::size_t lat_cells,
                      const AnnulusBlock& blk, double acc) {
  return blk.transfer != nullptr
             ? annulus_run<true>(lat, stride_y, stride_z, lat_cells, blk, acc)
             : annulus_run<false>(lat, stride_y, stride_z, lat_cells, blk,
                                  acc);
}

void fft_stage_avx512(double* d, std::size_t n, std::size_t half,
                      const double* tw) {
  if (half == 1) {
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
  const std::size_t len = 2 * half;
  if (half == 2) {
    // One 256-bit butterfly pair per block.
    const __m256d w = _mm256_loadu_pd(tw);
    const __m256d wr = _mm256_movedup_pd(w);
    const __m256d wi = _mm256_permute_pd(w, 0xF);
    for (std::size_t block = 0; block < n; block += len) {
      double* lo = d + 2 * block;
      double* hi = lo + 4;
      const __m256d x = _mm256_loadu_pd(hi);
      const __m256d xs = _mm256_permute_pd(x, 0x5);
      const __m256d odd = _mm256_fmaddsub_pd(wr, x, _mm256_mul_pd(wi, xs));
      const __m256d e = _mm256_loadu_pd(lo);
      _mm256_storeu_pd(lo, _mm256_add_pd(e, odd));
      _mm256_storeu_pd(hi, _mm256_sub_pd(e, odd));
    }
    return;
  }
  // half >= 4 (always a multiple of 4): four butterflies per zmm.
  for (std::size_t block = 0; block < n; block += len) {
    double* lo = d + 2 * block;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; k += 4) {
      const __m512d w = _mm512_loadu_pd(tw + 2 * k);
      const __m512d x = _mm512_loadu_pd(hi + 2 * k);
      const __m512d wr = _mm512_movedup_pd(w);
      const __m512d wi = _mm512_permute_pd(w, 0xFF);
      const __m512d xs = _mm512_permute_pd(x, 0x55);
      const __m512d odd = _mm512_fmaddsub_pd(wr, x, _mm512_mul_pd(wi, xs));
      const __m512d e = _mm512_loadu_pd(lo + 2 * k);
      _mm512_storeu_pd(lo + 2 * k, _mm512_add_pd(e, odd));
      _mm512_storeu_pd(hi + 2 * k, _mm512_sub_pd(e, odd));
    }
  }
}

void cmul_avx512(double* a, const double* b, std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m512d x = _mm512_loadu_pd(a + 2 * k);
    const __m512d y = _mm512_loadu_pd(b + 2 * k);
    const __m512d br = _mm512_movedup_pd(y);
    const __m512d bi = _mm512_permute_pd(y, 0xFF);
    const __m512d xs = _mm512_permute_pd(x, 0x55);
    _mm512_storeu_pd(a + 2 * k,
                     _mm512_fmaddsub_pd(br, x, _mm512_mul_pd(bi, xs)));
  }
  for (; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    a[2 * k] = ar * br - ai * bi;
    a[2 * k + 1] = ar * bi + ai * br;
  }
}

void cmul_conj_avx512(double* dst, const double* src, const double* c,
                      std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m512d x = _mm512_loadu_pd(src + 2 * k);
    const __m512d cc = _mm512_loadu_pd(c + 2 * k);
    const __m512d cr = _mm512_movedup_pd(cc);
    const __m512d ci = _mm512_permute_pd(cc, 0xFF);
    const __m512d xs = _mm512_permute_pd(x, 0x55);
    _mm512_storeu_pd(dst + 2 * k,
                     _mm512_fmsubadd_pd(cr, x, _mm512_mul_pd(ci, xs)));
  }
  for (; k < n; ++k) {
    const double xr = src[2 * k], xi = src[2 * k + 1];
    const double rr = c[2 * k], ri = c[2 * k + 1];
    dst[2 * k] = xr * rr + xi * ri;
    dst[2 * k + 1] = xi * rr - xr * ri;
  }
}

const KernelTable kAvx512Table = {
    Isa::kAvx512,
    &stage_avx512,
    &annulus_avx512,
    &trilinear_avx512,
    &fft_stage_avx512,
    &cmul_avx512,
    &cmul_conj_avx512,
};

}  // namespace

namespace detail {
const KernelTable* avx512_table() { return &kAvx512Table; }
}  // namespace detail

}  // namespace por::simd

#else  // !(__AVX512F__ && __AVX512DQ__ && __FMA__)

namespace por::simd::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace por::simd::detail

#endif
