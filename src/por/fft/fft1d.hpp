// por/fft/fft1d.hpp
//
// One-dimensional complex-to-complex discrete Fourier transforms.
//
// Conventions (used consistently across the library):
//   forward:  X[k] = sum_j x[j] * exp(-2*pi*i*j*k/N)      (unnormalized)
//   inverse:  x[j] = (1/N) * sum_k X[k] * exp(+2*pi*i*j*k/N)
//
// Power-of-two lengths use an iterative radix-2 Cooley-Tukey transform;
// every other length uses Bluestein's chirp-z algorithm so that the
// odd image sizes of the paper's data sets (331x331 Sindbis views,
// 511x511 reovirus views) transform exactly, not by padding.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace por::simd {
struct KernelTable;
}  // namespace por::simd

namespace por::fft {

using cdouble = std::complex<double>;

/// Is n a power of two (n >= 1)?
[[nodiscard]] constexpr bool is_pow2(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
[[nodiscard]] constexpr std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// A reusable transform plan for a fixed length.
///
/// Plans precompute twiddle factors (and, for non-power-of-two lengths,
/// the Bluestein chirp and its transform).  A plan is immutable after
/// construction and safe to share between threads; execute methods
/// allocate their scratch locally.
// CONTRACT: the precomputed tables (bit-reversal, roots, Bluestein
// chirps) are sized for exactly this n — re-checked by POR_ENSURE in
// fft1d.cpp before each butterfly / convolution pass.
class Fft1D {
 public:
  /// Build a plan for length n (n >= 1).
  explicit Fft1D(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place forward DFT of `data[0..n)` (stride 1).
  void forward(cdouble* data) const { transform(data, /*inverse=*/false); }

  /// In-place inverse DFT (includes the 1/N factor).
  void inverse(cdouble* data) const { transform(data, /*inverse=*/true); }

  /// Strided execution helper: gather a line, transform, scatter back.
  void forward_strided(cdouble* base, std::size_t stride) const;

 private:
  void transform(cdouble* data, bool inverse) const;

  /// Radix-2 path through the butterfly kernel of `kt`; requires
  /// is_pow2(n_).
  void pow2_forward(cdouble* data, const simd::KernelTable& kt) const;

  /// Bluestein path (forward only; inverse goes through conjugation).
  void bluestein_forward(cdouble* data) const;

  std::size_t n_;
  bool pow2_;

  // Observability ("fft.1d.transforms" / "fft.1d.points") is resolved
  // per execute against the *calling* thread's current registry (see
  // obs_handles.hpp): plans are shared through the process-wide
  // PlanCache and must not pin a registry that can die before them.

  // Radix-2 tables (also used by the Bluestein inner transform).
  std::vector<std::size_t> bitrev_;    // bit-reversal permutation
  std::vector<cdouble> roots_;         // exp(-2*pi*i*k/n), k < n/2
  // Per-stage flattened twiddles for the dispatched butterfly kernel
  // (por/simd fft_stage): the stage with half h reads h CONTIGUOUS
  // complexes at offset h-1 (stage_tw_[h-1+k] = roots_[k*(n/(2h))]),
  // n-1 complexes total — the strided root walk of the historical loop
  // becomes a unit-stride load the wide tiers can vectorize.
  std::vector<cdouble> stage_tw_;

  // Bluestein tables.
  std::size_t m_ = 0;                  // inner power-of-two length >= 2n-1
  std::vector<cdouble> chirp_;         // exp(+i*pi*k^2/n), k < n
  std::vector<cdouble> chirp_fft_;     // forward FFT of the extended chirp
  std::unique_ptr<Fft1D> inner_;       // power-of-two plan of length m_
};

}  // namespace por::fft
