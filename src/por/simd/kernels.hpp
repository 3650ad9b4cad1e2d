// por/simd/kernels.hpp
//
// The dispatch table: per-ISA implementations of the three hot-kernel
// families (DESIGN.md §12).
//
//   * matcher — staging (annulus pixel -> lattice cell addressing, plus
//     the SSE2 tier's corner-line prefetch) and the fused trilinear-
//     interpolate / correlate / accumulate consume loop, over a
//     256-cell block of the interleaved spectrum lattice
//     (em::InterleavedComplexLattice, the one layout every tier reads).
//   * fft — one radix-2 butterfly stage over the whole buffer against
//     a contiguous per-stage twiddle table, and the Bluestein pointwise
//     complex products.
//   * trilinear — a single-cell fetch, exposed so tests can compare
//     every tier against the scalar reference cell by cell.
//
// Each tier lives in its own translation unit compiled with the
// matching -m flags (kernels_sse2.cpp / kernels_avx2.cpp /
// kernels_avx512.cpp); a tier whose flags the compiler lacks compiles
// to a null table and kernel_table() falls down a tier.  The SSE2 tier
// reproduces the pre-dispatch code paths BIT-IDENTICALLY: its cell
// fetch keeps the per-lane operations and association of the original
// packed SSE2 sequence (tests/test_simd.cpp pins it against a scalar
// oracle written in that association).  The wider tiers use FMA and
// differ by last-ulp rounding only, gated by the 1e-12 fast-vs-
// reference harness (tests/test_simd.cpp, bench_matcher).
//
// Tolerance policy (FMA contraction): see DESIGN.md §12.  The SSE2
// tier sums pixel-sequentially, bit-identical to the pre-dispatch
// code.  The AVX tiers additionally regroup the annulus sum into four
// rotating accumulators with a FIXED k mod 4 partition — deterministic
// for a given tier at any thread/rank count, different from the scalar
// oracle by ulp-level association only, gated at 1e-12.
#pragma once

#include <cstddef>
#include <cstdint>

#include "por/simd/isa.hpp"

namespace por::simd {

/// One staged block of annulus pixels resolved to lattice cells, SoA
/// so the staging kernel can vectorize.  `base` is in lattice CELLS
/// (complex (re, im) pairs).
struct StageBlock {
  const double* ku = nullptr;  ///< annulus column, block-offset
  const double* kv = nullptr;
  std::size_t count = 0;
  double euz = 0, euy = 0, eux = 0;  ///< rotated u axis
  double evz = 0, evy = 0, evx = 0;  ///< rotated v axis
  double c = 0;                      ///< lattice center offset
  std::size_t stride_y = 0, stride_z = 0;  ///< in lattice cells
  /// Flat index of the lattice's first cell in the full spectrum's
  /// coordinates (origin * (stride_z + stride_y + 1) for a crop at
  /// `origin`): subtracted from the integer cell index after the
  /// q + c coordinate arithmetic, so the fractional offsets — and so
  /// every sample — are the ones an uncropped lattice would give.
  std::size_t origin_cell = 0;
  std::size_t* base = nullptr;  ///< out: flat cell index
  double* tz = nullptr;         ///< out: fractional offsets
  double* ty = nullptr;
  double* tx = nullptr;
  /// Corner-line prefetch (SSE2 tier only — the AVX tiers prefetch a
  /// short distance ahead inside their consume loops instead): the
  /// interleaved lattice data.  last_line dedups across consecutive
  /// blocks.
  const double* lat = nullptr;
  std::size_t* last_line = nullptr;
};

/// Consume half of one staged block: fused trilinear fetch + optional
/// transfer + view diff + weight, accumulated pixel-sequentially.
/// transfer is nullptr when the multiplier is uniformly 1.0 (bit-exact
/// skip); weight is always set (it carries the matcher's folded
/// Hermitian mirror, so it is never uniformly 1.0).
struct AnnulusBlock {
  const std::size_t* base = nullptr;
  const double* tz = nullptr;
  const double* ty = nullptr;
  const double* tx = nullptr;
  std::size_t count = 0;
  const double* view = nullptr;        ///< interleaved (re, im) pixels
  const std::uint32_t* index = nullptr;  ///< view cell index per pixel
  const double* transfer = nullptr;    ///< per-pixel multiplier or null
  const double* weight = nullptr;      ///< per-pixel weight
};

/// A single trilinear cell fetch (test/bench surface).
struct CellSample {
  double re = 0.0;
  double im = 0.0;
};

using StageFn = void (*)(const StageBlock& blk);
/// Consume kernels take the RUNNING accumulator and return it updated:
/// the caller's block pipeline then sums terms in exactly the sequence
/// a single continuous loop would (no per-block regrouping), which is
/// what keeps the SSE2 tier bit-identical to the pre-dispatch code.
using AnnulusFn = double (*)(const double* lat, std::size_t stride_y,
                             std::size_t stride_z, std::size_t lat_cells,
                             const AnnulusBlock& blk, double acc);
using TrilinearFn = CellSample (*)(const double* lat, std::size_t stride_y,
                                   std::size_t stride_z, std::size_t base,
                                   double tz, double ty, double tx);

/// One radix-2 butterfly stage over the whole length-n buffer `d`
/// (interleaved complex doubles): for every block of 2*half complexes,
/// butterfly lanes k in [0, half) against the CONTIGUOUS twiddles
/// tw[2k], tw[2k+1] (the per-stage flattened table in Fft1D).
using FftStageFn = void (*)(double* d, std::size_t n, std::size_t half,
                            const double* tw);

/// Pointwise complex products over interleaved buffers of n complexes:
/// cmul:      a[k] *= b[k]
/// cmul_conj: dst[k] = src[k] * conj(c[k])   (dst may alias src)
using CmulFn = void (*)(double* a, const double* b, std::size_t n);
using CmulConjFn = void (*)(double* dst, const double* src, const double* c,
                            std::size_t n);

/// One tier's complete kernel set.
struct KernelTable {
  Isa isa = Isa::kSse2;
  StageFn stage = nullptr;
  AnnulusFn annulus = nullptr;
  TrilinearFn trilinear = nullptr;
  FftStageFn fft_stage = nullptr;
  CmulFn cmul = nullptr;
  CmulConjFn cmul_conj = nullptr;
};

/// The table for `isa`, clamped down to the best tier that is BOTH
/// supported by this machine and compiled into this binary.  Never
/// returns null: the SSE2 tier always exists.
[[nodiscard]] const KernelTable& kernel_table(Isa isa);

/// kernel_table(active_isa()) — what process-global dispatch sites
/// (the FFT execute paths) read per call.
[[nodiscard]] const KernelTable& active_kernels();

namespace detail {
/// Per-TU table accessors; a tier compiled without its -m flags
/// returns nullptr and the dispatcher falls down a tier.
[[nodiscard]] const KernelTable* sse2_table();
[[nodiscard]] const KernelTable* avx2_table();
[[nodiscard]] const KernelTable* avx512_table();
}  // namespace detail

}  // namespace por::simd
