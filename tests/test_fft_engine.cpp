// Tests for the v2 FFT engine: plan cache accounting, the batched
// strided-line transform, real-to-complex forward transforms (including
// the paper's odd Bluestein view sizes 331 and 511) and the
// complex-to-real row inverse.

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <vector>

#include "por/fft/fft1d.hpp"
#include "por/fft/fftnd.hpp"
#include "por/fft/plan_cache.hpp"
#include "por/obs/registry.hpp"
#include "por/util/rng.hpp"

namespace {

using namespace por::fft;
namespace obs = por::obs;

std::vector<cdouble> random_field(std::size_t n, std::uint64_t seed) {
  por::util::Rng rng(seed);
  std::vector<cdouble> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  por::util::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  return x;
}

double max_err(const std::vector<cdouble>& a, const std::vector<cdouble>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double max_mag(const std::vector<cdouble>& a) {
  double worst = 0.0;
  for (const auto& v : a) worst = std::max(worst, std::abs(v));
  return worst;
}

// ---- plan cache -------------------------------------------------------------

TEST(PlanCache, FindOrBuildReturnsSharedPlans) {
  PlanCache::instance().clear();
  const auto a = cached_plan(24);
  const auto b = cached_plan(24);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 24u);
  const auto c = cached_plan(25);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(PlanCache::instance().size(), 2u);
}

TEST(PlanCache, CountsHitsAndMisses) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  PlanCache::instance().clear();
  (void)cached_plan(40);  // miss
  (void)cached_plan(40);  // hit
  (void)cached_plan(40);  // hit
  (void)cached_plan(41);  // miss
  EXPECT_EQ(registry.counter("fft.plan_cache.misses").value(), 2u);
  EXPECT_EQ(registry.counter("fft.plan_cache.hits").value(), 2u);
}

TEST(PlanCache, RepeatedTransformsHitTheCache) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  PlanCache::instance().clear();
  auto x = random_field(12 * 12, 3);
  fft2d_forward(x.data(), 12, 12);  // builds the length-12 plan once
  const std::uint64_t misses_after_first =
      registry.counter("fft.plan_cache.misses").value();
  fft2d_forward(x.data(), 12, 12);
  fft2d_inverse(x.data(), 12, 12);
  EXPECT_EQ(registry.counter("fft.plan_cache.misses").value(),
            misses_after_first)
      << "repeated transforms of the same size must not rebuild plans";
  EXPECT_GE(registry.counter("fft.plan_cache.hits").value(), 4u);
}

TEST(PlanCache, ClearDropsPlansButOutstandingHandlesStayValid) {
  PlanCache::instance().clear();
  const auto plan = cached_plan(17);
  PlanCache::instance().clear();
  EXPECT_EQ(PlanCache::instance().size(), 0u);
  auto x = random_field(17, 5);
  plan->forward(x.data());  // must not crash or read freed tables
  plan->inverse(x.data());
  EXPECT_LT(max_err(x, random_field(17, 5)), 1e-12);
}

// ---- batched strided lines --------------------------------------------------

TEST(Fft1dLines, MatchesPerLineStridedTransforms) {
  // Column pattern of a 2D pass: count=nx lines of length ny, stride nx.
  for (const auto& [count, n] :
       {std::pair<std::size_t, std::size_t>{8, 16},
        std::pair<std::size_t, std::size_t>{31, 9},   // partial last tile
        std::pair<std::size_t, std::size_t>{16, 21},  // Bluestein length
        std::pair<std::size_t, std::size_t>{1, 13}}) {
    const auto x = random_field(count * n, count + n);
    auto batched = x;
    fft1d_lines(batched.data(), count, n, count, /*inverse=*/false);
    auto reference = x;
    const Fft1D plan(n);
    for (std::size_t j = 0; j < count; ++j) {
      plan.forward_strided(reference.data() + j, count);
    }
    EXPECT_LT(max_err(batched, reference), 1e-13) << count << " x " << n;

    auto inverse = batched;
    fft1d_lines(inverse.data(), count, n, count, /*inverse=*/true);
    EXPECT_LT(max_err(inverse, x), 1e-12) << count << " x " << n;
  }
}

// ---- real-to-complex --------------------------------------------------------

class Rfft2dShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Rfft2dShapes, MatchesComplexTransform) {
  const auto [ny, nx] = GetParam();
  const auto real = random_real(ny * nx, ny * 31 + nx);
  std::vector<cdouble> reference(ny * nx);
  for (std::size_t i = 0; i < real.size(); ++i) reference[i] = {real[i], 0.0};
  fft2d_forward(reference.data(), ny, nx);
  std::vector<cdouble> r2c(ny * nx);
  rfft2d_forward(real.data(), r2c.data(), ny, nx);
  const double scale = 1.0 + max_mag(reference);
  EXPECT_LT(max_err(r2c, reference), 1e-12 * scale) << ny << "x" << nx;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Rfft2dShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{9, 15},   // both odd
                      std::pair<std::size_t, std::size_t>{10, 21},  // even rows
                      std::pair<std::size_t, std::size_t>{16, 4},
                      std::pair<std::size_t, std::size_t>{33, 31}));

// The paper's actual view sizes: 331x331 Sindbis and 511x511 reovirus
// micrograph boxes, both prime -> pure Bluestein territory.
TEST(Rfft2d, PaperOddViewSizesMatchComplexTransform) {
  for (const std::size_t n : {std::size_t{331}, std::size_t{511}}) {
    const auto real = random_real(n * n, n);
    std::vector<cdouble> reference(n * n);
    for (std::size_t i = 0; i < real.size(); ++i) reference[i] = {real[i], 0.0};
    fft2d_forward(reference.data(), n, n);
    std::vector<cdouble> r2c(n * n);
    rfft2d_forward(real.data(), r2c.data(), n, n);
    const double scale = 1.0 + max_mag(reference);
    EXPECT_LT(max_err(r2c, reference), 1e-12 * scale) << "n=" << n;
  }
}

TEST(Rfft3d, MatchesComplexTransform) {
  for (const auto& [nz, ny, nx] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{8, 8, 8},
        std::tuple<std::size_t, std::size_t, std::size_t>{6, 10, 5},
        std::tuple<std::size_t, std::size_t, std::size_t>{9, 7, 5},
        std::tuple<std::size_t, std::size_t, std::size_t>{12, 1, 8}}) {
    const auto real = random_real(nz * ny * nx, nz + ny + nx);
    std::vector<cdouble> reference(real.size());
    for (std::size_t i = 0; i < real.size(); ++i) reference[i] = {real[i], 0.0};
    fft3d_forward(reference.data(), nz, ny, nx);
    std::vector<cdouble> r2c(real.size());
    rfft3d_forward(real.data(), r2c.data(), nz, ny, nx);
    const double scale = 1.0 + max_mag(reference);
    EXPECT_LT(max_err(r2c, reference), 1e-12 * scale)
        << nz << "x" << ny << "x" << nx;
  }
}

TEST(Rfft3d, HalfIsBitwiseTheStoredHalfOfTheFullTransform) {
  for (const auto& [nz, ny, nx] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{8, 8, 8},
        std::tuple<std::size_t, std::size_t, std::size_t>{6, 10, 5},
        std::tuple<std::size_t, std::size_t, std::size_t>{9, 7, 5},
        std::tuple<std::size_t, std::size_t, std::size_t>{12, 1, 8}}) {
    const auto real = random_real(nz * ny * nx, nz * ny + nx);
    std::vector<cdouble> full(real.size());
    rfft3d_forward(real.data(), full.data(), nz, ny, nx);
    const std::size_t hx = nx / 2 + 1;
    std::vector<cdouble> half(nz * ny * hx);
    rfft3d_half(real.data(), half.data(), nz, ny, nx);
    for (std::size_t row = 0; row < nz * ny; ++row) {
      for (std::size_t x = 0; x < hx; ++x) {
        ASSERT_EQ(half[row * hx + x], full[row * nx + x])
            << nz << "x" << ny << "x" << nx << " row " << row << " x " << x;
      }
    }
  }
}

TEST(Irfft, RowsInvertTheHalfSpectrum) {
  for (const std::size_t nx : {1, 2, 5, 8, 9, 16}) {
    for (const std::size_t rows : {1, 2, 5}) {
      const auto real = random_real(rows * nx, 10 * nx + rows);
      const std::size_t hx = nx / 2 + 1;
      std::vector<cdouble> half(rows * hx);
      const Fft1D plan(nx);
      for (std::size_t r = 0; r < rows; ++r) {
        std::vector<cdouble> line(nx);
        for (std::size_t i = 0; i < nx; ++i) line[i] = {real[r * nx + i], 0.0};
        plan.forward(line.data());
        std::copy_n(line.begin(), hx, half.begin() + r * hx);
      }
      std::vector<double> back(rows * nx);
      irfft_rows(half.data(), back.data(), rows, nx);
      for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_NEAR(back[i], real[i], 1e-13) << "nx " << nx << " rows " << rows;
      }
      // Bin 0 and the Nyquist bin are their own mirrors: only their real
      // parts belong to a Hermitian spectrum, so their imaginary parts
      // must not leak into the output.
      for (std::size_t r = 0; r < rows; ++r) {
        half[r * hx] += cdouble{0.0, 3.0};
        if (nx % 2 == 0) half[r * hx + nx / 2] += cdouble{0.0, -2.0};
      }
      std::vector<double> again(rows * nx);
      irfft_rows(half.data(), again.data(), rows, nx);
      EXPECT_EQ(again, back) << "nx " << nx << " rows " << rows;
    }
  }
}

}  // namespace
