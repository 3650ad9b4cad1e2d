#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "por/fft/fft1d.hpp"
#include "por/simd/isa.hpp"
#include "por/util/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por::fft;

std::vector<cdouble> random_signal(std::size_t n, std::uint64_t seed) {
  por::util::Rng rng(seed);
  std::vector<cdouble> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

/// O(n^2) reference DFT.
std::vector<cdouble> naive_dft(const std::vector<cdouble>& x) {
  const std::size_t n = x.size();
  std::vector<cdouble> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cdouble sum{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(j * k % n) /
                           static_cast<double>(n);
      sum += x[j] * cdouble(std::cos(angle), std::sin(angle));
    }
    out[k] = sum;
  }
  return out;
}

double max_err(const std::vector<cdouble>& a, const std::vector<cdouble>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// ---- helpers ---------------------------------------------------------------

TEST(Pow2Helpers, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(331));
}

TEST(Pow2Helpers, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(511), 512u);
  EXPECT_EQ(next_pow2(512), 512u);
  EXPECT_EQ(next_pow2(513), 1024u);
}

// ---- parameterized correctness sweep ---------------------------------------

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 42 + n);
  auto y = x;
  Fft1D plan(n);
  plan.forward(y.data());
  const auto ref = naive_dft(x);
  // Error scales roughly with n; 331/511 are the paper's image sizes.
  EXPECT_LT(max_err(y, ref), 1e-10 * std::max<double>(1.0, n));
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 17 + n);
  auto y = x;
  Fft1D plan(n);
  plan.forward(y.data());
  plan.inverse(y.data());
  EXPECT_LT(max_err(y, x), 1e-12 * std::max<double>(1.0, n));
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 5 + n);
  auto y = x;
  Fft1D plan(n);
  plan.forward(y.data());
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * n);
}

TEST_P(FftSizes, LinearityHolds) {
  const std::size_t n = GetParam();
  const auto a = random_signal(n, 100 + n);
  const auto b = random_signal(n, 200 + n);
  Fft1D plan(n);
  std::vector<cdouble> combo(n), fa = a, fb = b;
  for (std::size_t i = 0; i < n; ++i) combo[i] = 2.0 * a[i] - 3.0 * b[i];
  plan.forward(combo.data());
  plan.forward(fa.data());
  plan.forward(fb.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(combo[i] - (2.0 * fa[i] - 3.0 * fb[i])), 1e-9 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 27, 31,
                                           32, 64, 100, 128, 331, 511));

// ---- analytic special cases -------------------------------------------------

TEST(Fft1D, ImpulseTransformsToConstant) {
  const std::size_t n = 16;
  std::vector<cdouble> x(n, {0, 0});
  x[0] = {1, 0};
  Fft1D(n).forward(x.data());
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1D, ConstantTransformsToImpulse) {
  const std::size_t n = 16;
  std::vector<cdouble> x(n, {1, 0});
  Fft1D(n).forward(x.data());
  EXPECT_NEAR(x[0].real(), static_cast<double>(n), 1e-10);
  for (std::size_t k = 1; k < n; ++k) EXPECT_LT(std::abs(x[k]), 1e-10);
}

TEST(Fft1D, SingleToneLandsInOneBin) {
  const std::size_t n = 32;
  const std::size_t bin = 5;
  std::vector<cdouble> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = 2.0 * std::numbers::pi * bin * j / n;
    x[j] = {std::cos(angle), std::sin(angle)};
  }
  Fft1D(n).forward(x.data());
  EXPECT_NEAR(x[bin].real(), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != bin) {
      EXPECT_LT(std::abs(x[k]), 1e-9) << "bin " << k;
    }
  }
}

TEST(Fft1D, ShiftTheorem) {
  // DFT of x[(j - s) mod n] is X[k] * exp(-2 pi i k s / n).
  const std::size_t n = 24, s = 5;
  const auto x = random_signal(n, 3);
  std::vector<cdouble> shifted(n);
  for (std::size_t j = 0; j < n; ++j) shifted[j] = x[(j + n - s) % n];
  Fft1D plan(n);
  auto fx = x, fs = shifted;
  plan.forward(fx.data());
  plan.forward(fs.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k * s) / n;
    const cdouble expected = fx[k] * cdouble(std::cos(angle), std::sin(angle));
    EXPECT_LT(std::abs(fs[k] - expected), 1e-9);
  }
}

TEST(Fft1D, RealInputHasHermitianSpectrum) {
  const std::size_t n = 20;
  por::util::Rng rng(8);
  std::vector<cdouble> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), 0.0};
  Fft1D(n).forward(x.data());
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LT(std::abs(x[k] - std::conj(x[n - k])), 1e-10);
  }
}

TEST(Fft1D, StridedMatchesContiguous) {
  const std::size_t n = 16, stride = 3;
  const auto x = random_signal(n, 77);
  std::vector<cdouble> spread(n * stride, {0, 0});
  for (std::size_t i = 0; i < n; ++i) spread[i * stride] = x[i];
  Fft1D plan(n);
  auto ref = x;
  plan.forward(ref.data());
  plan.forward_strided(spread.data(), stride);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(spread[i * stride] - ref[i]), 1e-12);
  }
}

TEST(Fft1D, ZeroLengthRejected) {
  EXPECT_THROW(Fft1D(0), std::invalid_argument);
}

TEST(Fft1D, PlanIsReusable) {
  const std::size_t n = 64;
  Fft1D plan(n);
  for (int round = 0; round < 3; ++round) {
    auto x = random_signal(n, 900 + round);
    auto y = x;
    plan.forward(y.data());
    plan.inverse(y.data());
    EXPECT_LT(max_err(y, x), 1e-12 * n);
  }
}

TEST(Fft1D, BluesteinPlanCarriesNoTraceOfTheTierThatBuiltIt) {
  // Plans are cached process-wide, so one built while a wide tier is
  // active may later run under SSE2.  Length 48 takes the Bluestein
  // path, whose chirp spectrum is computed at construction: a plan
  // built under any tier must transform bitwise like one built under
  // SSE2.
  const por::simd::Isa saved = por::simd::active_isa();
  const std::vector<cdouble> signal = random_signal(48, 23);
  for (const por::simd::Isa builder : por::test::available_tiers()) {
    SCOPED_TRACE(por::simd::isa_name(builder));
    por::simd::force_isa(builder);
    const Fft1D built(48);
    por::simd::force_isa(por::simd::Isa::kSse2);
    const Fft1D reference(48);
    std::vector<cdouble> a = signal, b = signal;
    built.forward(a.data());
    reference.forward(b.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cdouble)), 0);
    built.inverse(a.data());
    reference.inverse(b.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cdouble)), 0);
  }
  por::simd::force_isa(saved);
}

}  // namespace
