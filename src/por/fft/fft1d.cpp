// POR_HOT_PATH
//
// Executed per line of every 2D/3D transform; execute-path scratch
// is one thread-local vector per site that only grows.  Plan
// construction (tables below) runs once per length.  Both carry
// hot-path-alloc waivers.
#include "por/fft/fft1d.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "por/fft/obs_handles.hpp"
#include "por/simd/kernels.hpp"
#include "por/util/contracts.hpp"

namespace por::fft {

namespace {

// por-lint: allow(hot-path-alloc) plan table, built once per length
std::vector<std::size_t> make_bitrev(std::size_t n) {
  // por-lint: allow(hot-path-alloc) plan table, built once per length
  std::vector<std::size_t> rev(n);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    }
    rev[i] = r;
  }
  return rev;
}

// por-lint: allow(hot-path-alloc) plan table, built once per length
std::vector<cdouble> make_roots(std::size_t n) {
  // por-lint: allow(hot-path-alloc) plan table, built once per length
  std::vector<cdouble> roots(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    roots[k] = {std::cos(angle), std::sin(angle)};
  }
  return roots;
}

}  // namespace

Fft1D::Fft1D(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
  if (n == 0) throw std::invalid_argument("Fft1D: length must be >= 1");
  if (pow2_) {
    bitrev_ = make_bitrev(n_);
    roots_ = make_roots(n_);
    // Flatten the per-stage twiddles (see fft1d.hpp): stage half=h at
    // complex offset h-1, reading roots_ with the stage's stride.
    if (n_ >= 2) {
      stage_tw_.resize(n_ - 1);
      for (std::size_t half = 1; half < n_; half <<= 1) {
        const std::size_t step = n_ / (2 * half);
        for (std::size_t k = 0; k < half; ++k) {
          stage_tw_[half - 1 + k] = roots_[k * step];
        }
      }
    }
    return;
  }
  // Bluestein setup.  chirp_[k] = exp(+i*pi*k^2/n); the inner circular
  // convolution length must be >= 2n-1 and a power of two.
  m_ = next_pow2(2 * n_ - 1);
  inner_ = std::make_unique<Fft1D>(m_);
  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the phase argument small and exact.
    const std::size_t k2 = (k * k) % (2 * n_);
    const double angle =
        std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n_);
    chirp_[k] = {std::cos(angle), std::sin(angle)};
  }
  // por-lint: allow(hot-path-alloc) Bluestein setup, once per plan
  std::vector<cdouble> b(m_, cdouble{0.0, 0.0});
  b[0] = chirp_[0];
  for (std::size_t k = 1; k < n_; ++k) {
    b[k] = chirp_[k];
    b[m_ - k] = chirp_[k];  // symmetric wrap for negative indices
  }
  // The chirp spectrum is part of the plan, and plans are shared
  // process-wide: transform it by the SSE2 tier whatever tier is active,
  // so a plan carries the same bits whichever tier built it.
  inner_->pow2_forward(b.data(), simd::kernel_table(simd::Isa::kSse2));
  chirp_fft_ = std::move(b);
}

void Fft1D::transform(cdouble* data, bool inverse) const {
  POR_EXPECT(data != nullptr, "transform on null buffer, n =", n_);
  if (n_ == 1) return;
  detail::ObsHandles& obs = detail::obs_handles();
  obs.transforms_1d->add();
  obs.points_1d->add(n_);
  if (!inverse) {
    if (pow2_) {
      pow2_forward(data, simd::active_kernels());
    } else {
      bluestein_forward(data);
    }
    return;
  }
  // inverse(x) = conj(forward(conj(x))) / n
  for (std::size_t i = 0; i < n_; ++i) data[i] = std::conj(data[i]);
  if (pow2_) {
    pow2_forward(data, simd::active_kernels());
  } else {
    bluestein_forward(data);
  }
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) data[i] = std::conj(data[i]) * scale;
}

void Fft1D::pow2_forward(cdouble* data, const simd::KernelTable& kt) const {
  const std::size_t n = n_;
  // CONTRACT: the bit-reversal permutation and the twiddle tables are
  // built for exactly this n at construction; a mismatch would read
  // out of the tables inside the butterfly loop.
  POR_ENSURE(bitrev_.size() == n && roots_.size() == n / 2 &&
                 (n < 2 || stage_tw_.size() == n - 1),
             "precomputed tables out of sync: n =", n,
             "bitrev =", bitrev_.size(), "roots =", roots_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Butterfly stages run through the dispatched per-ISA kernel `kt`
  // (the execute paths pass the process-wide tier, re-read per
  // transform — plans are shared and must not snapshot a stale table).
  // The kernels work on raw doubles:
  // std::complex<double> operator* lowers to a __muldc3 libcall
  // (NaN-recovery semantics) which dominates the whole transform; the
  // manual (ac - bd, ad + bc) form is the identical finite-case
  // arithmetic at a fraction of the cost.  std::complex<double> is
  // layout-compatible with double[2] by [complex.numbers.general], so
  // the casts are defined.
  detail::obs_handles().simd_stage_dispatch->add();
  double* d = reinterpret_cast<double*>(data);
  const double* tw = reinterpret_cast<const double*>(stage_tw_.data());
  for (std::size_t half = 1; half < n; half <<= 1) {
    kt.fft_stage(d, n, half, tw + 2 * (half - 1));
  }
}

void Fft1D::bluestein_forward(cdouble* data) const {
  POR_ENSURE(chirp_.size() == n_ && chirp_fft_.size() == m_ && m_ >= 2 * n_ - 1,
             "Bluestein tables out of sync: n =", n_, "m =", m_);
  // Convolution scratch is the calling thread's own buffer, which only
  // grows: after the first transform of a given size repeated
  // transforms never touch the general heap.  inner_ is a power-of-two
  // plan, so nothing below re-enters this buffer.
  // por-lint: allow(hot-path-alloc) thread-local scratch, only grows
  thread_local std::vector<cdouble> scratch;
  if (scratch.size() < m_) scratch.resize(m_);
  cdouble* a = scratch.data();
  // The pointwise complex products run through the dispatched per-ISA
  // kernels (manual (ac - bd, ad + bc) arithmetic — see pow2_forward
  // for the __muldc3 rationale and the layout-compatibility note).
  const simd::KernelTable& kt = simd::active_kernels();
  double* ad = reinterpret_cast<double*>(a);
  const double* chirp = reinterpret_cast<const double*>(chirp_.data());
  // a[k] = x[k] * conj(chirp[k]), zero-padded to m.
  kt.cmul_conj(ad, reinterpret_cast<const double*>(data), chirp, n_);
  for (std::size_t k = n_; k < m_; ++k) a[k] = cdouble{0.0, 0.0};
  inner_->forward(a);
  kt.cmul(ad, reinterpret_cast<const double*>(chirp_fft_.data()), m_);
  inner_->inverse(a);
  kt.cmul_conj(reinterpret_cast<double*>(data), ad, chirp, n_);
}

void Fft1D::forward_strided(cdouble* base, std::size_t stride) const {
  // One gathered line; forward() may run Bluestein, which has its own
  // buffer.
  // por-lint: allow(hot-path-alloc) thread-local scratch, only grows
  thread_local std::vector<cdouble> scratch;
  if (scratch.size() < n_) scratch.resize(n_);
  cdouble* line = scratch.data();
  for (std::size_t i = 0; i < n_; ++i) line[i] = base[i * stride];
  forward(line);
  for (std::size_t i = 0; i < n_; ++i) base[i * stride] = line[i];
}

}  // namespace por::fft
