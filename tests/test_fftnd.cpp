#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "por/fft/fftnd.hpp"
#include "por/util/rng.hpp"

namespace {

using namespace por::fft;

std::vector<cdouble> random_field(std::size_t n, std::uint64_t seed) {
  por::util::Rng rng(seed);
  std::vector<cdouble> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

double max_err(const std::vector<cdouble>& a, const std::vector<cdouble>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// ---- 2D ---------------------------------------------------------------------

class Fft2dShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Fft2dShapes, RoundTrip) {
  const auto [ny, nx] = GetParam();
  const auto x = random_field(ny * nx, ny * 100 + nx);
  auto y = x;
  fft2d_forward(y.data(), ny, nx);
  fft2d_inverse(y.data(), ny, nx);
  EXPECT_LT(max_err(y, x), 1e-11 * static_cast<double>(ny * nx));
}

TEST_P(Fft2dShapes, MatchesDirectDoubleSum) {
  const auto [ny, nx] = GetParam();
  if (ny * nx > 600) GTEST_SKIP() << "O(n^2) reference too slow";
  const auto x = random_field(ny * nx, 7);
  auto y = x;
  fft2d_forward(y.data(), ny, nx);
  for (std::size_t ky = 0; ky < ny; ++ky) {
    for (std::size_t kx = 0; kx < nx; ++kx) {
      cdouble sum{0, 0};
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
          const double angle =
              -2.0 * std::numbers::pi *
              (static_cast<double>(ky * j) / ny + static_cast<double>(kx * i) / nx);
          sum += x[j * nx + i] * cdouble(std::cos(angle), std::sin(angle));
        }
      }
      ASSERT_LT(std::abs(y[ky * nx + kx] - sum), 1e-9)
          << "at (" << ky << "," << kx << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft2dShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{4, 16},
                      std::pair<std::size_t, std::size_t>{15, 9},
                      std::pair<std::size_t, std::size_t>{21, 21},
                      std::pair<std::size_t, std::size_t>{33, 31}));

// ---- 3D ---------------------------------------------------------------------

TEST(Fft3d, RoundTripCube) {
  const std::size_t l = 12;
  const auto x = random_field(l * l * l, 9);
  auto y = x;
  fft3d_forward(y.data(), l, l, l);
  fft3d_inverse(y.data(), l, l, l);
  EXPECT_LT(max_err(y, x), 1e-10);
}

TEST(Fft3d, RoundTripNonCube) {
  const std::size_t nz = 6, ny = 10, nx = 5;
  const auto x = random_field(nz * ny * nx, 10);
  auto y = x;
  fft3d_forward(y.data(), nz, ny, nx);
  fft3d_inverse(y.data(), nz, ny, nx);
  EXPECT_LT(max_err(y, x), 1e-10);
}

TEST(Fft3d, ImpulseAtOriginGivesFlatSpectrum) {
  const std::size_t l = 8;
  std::vector<cdouble> x(l * l * l, {0, 0});
  x[0] = {1, 0};
  fft3d_forward(x.data(), l, l, l);
  for (const auto& v : x) EXPECT_LT(std::abs(v - cdouble{1, 0}), 1e-12);
}

TEST(Fft3d, SeparableToneLandsInOneBin) {
  const std::size_t l = 8;
  const std::size_t bz = 1, by = 2, bx = 3;
  std::vector<cdouble> x(l * l * l);
  for (std::size_t z = 0; z < l; ++z) {
    for (std::size_t y = 0; y < l; ++y) {
      for (std::size_t xx = 0; xx < l; ++xx) {
        const double angle = 2.0 * std::numbers::pi *
                             static_cast<double>(bz * z + by * y + bx * xx) / l;
        x[(z * l + y) * l + xx] = {std::cos(angle), std::sin(angle)};
      }
    }
  }
  fft3d_forward(x.data(), l, l, l);
  const std::size_t hot = (bz * l + by) * l + bx;
  EXPECT_NEAR(x[hot].real(), static_cast<double>(l * l * l), 1e-8);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i != hot) {
      ASSERT_LT(std::abs(x[i]), 1e-8) << "bin " << i;
    }
  }
}

}  // namespace
