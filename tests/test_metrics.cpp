#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/metrics/distance.hpp"
#include "por/metrics/fsc.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/util/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using namespace por::metrics;

Image<cdouble> random_spectrum(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Image<cdouble> img(n, n);
  for (auto& v : img.storage()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return img;
}

// ---- Fourier distance ---------------------------------------------------------

TEST(FourierDistance, ZeroForIdenticalSpectra) {
  const Image<cdouble> f = random_spectrum(16, 1);
  DistanceOptions options;
  EXPECT_DOUBLE_EQ(fourier_distance(f, f, options), 0.0);
}

TEST(FourierDistance, SymmetricInArguments) {
  const Image<cdouble> a = random_spectrum(16, 2);
  const Image<cdouble> b = random_spectrum(16, 3);
  DistanceOptions options;
  options.r_max = 6.0;
  EXPECT_DOUBLE_EQ(fourier_distance(a, b, options),
                   fourier_distance(b, a, options));
}

TEST(FourierDistance, MatchesPaperFormulaOnFullDisk) {
  // d(F, C) = (1/l^2) sum |F - C|^2 without a radius cut.
  const std::size_t n = 8;
  const Image<cdouble> a = random_spectrum(n, 4);
  const Image<cdouble> b = random_spectrum(n, 5);
  double expected = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expected += std::norm(a.storage()[i] - b.storage()[i]);
  }
  expected /= static_cast<double>(n * n);
  DistanceOptions options;  // r_max = 0 -> everything included
  EXPECT_NEAR(fourier_distance(a, b, options), expected, 1e-12);
}

TEST(FourierDistance, RadiusCutExcludesHighFrequencies) {
  const std::size_t n = 16;
  Image<cdouble> a(n, n, {0, 0}), b(n, n, {0, 0});
  // Difference only at a high-frequency pixel (radius ~7 from center).
  b(8, 15) = {10.0, 0.0};
  DistanceOptions tight;
  tight.r_max = 3.0;
  EXPECT_DOUBLE_EQ(fourier_distance(a, b, tight), 0.0);
  DistanceOptions wide;
  wide.r_max = 8.0;
  EXPECT_GT(fourier_distance(a, b, wide), 0.0);
}

TEST(FourierDistance, RMinExcludesDcTerm) {
  const std::size_t n = 8;
  Image<cdouble> a(n, n, {0, 0}), b(n, n, {0, 0});
  b(4, 4) = {5.0, 0.0};  // DC only
  DistanceOptions options;
  options.r_min = 0.5;
  EXPECT_DOUBLE_EQ(fourier_distance(a, b, options), 0.0);
}

TEST(FourierDistance, RadialWeightEmphasizesHighFrequencies) {
  const std::size_t n = 16;
  Image<cdouble> base(n, n, {0, 0});
  Image<cdouble> low = base, high = base;
  low(8, 10) = {1.0, 0.0};    // radius 2
  high(8, 15) = {1.0, 0.0};   // radius 7
  DistanceOptions radial;
  radial.weighting = Weighting::kRadial;
  radial.r_max = 7.5;
  EXPECT_GT(fourier_distance(base, high, radial),
            fourier_distance(base, low, radial));
  // With uniform weighting they are equal.
  DistanceOptions uniform;
  uniform.r_max = 7.5;
  EXPECT_NEAR(fourier_distance(base, high, uniform),
              fourier_distance(base, low, uniform), 1e-15);
}

TEST(FourierDistance, RejectsSizeMismatch) {
  DistanceOptions options;
  EXPECT_THROW(
      (void)fourier_distance(random_spectrum(8, 1), random_spectrum(9, 2),
                             options),
      std::invalid_argument);
}

// ---- real-space -----------------------------------------------------------------

TEST(RealspaceCorrelation, InvariantToAffineRescaling) {
  const BlobModel model = por::test::small_phantom(16, 8);
  const Image<double> img = model.project_analytic(16, {30, 60, 90});
  Image<double> scaled(16, 16);
  for (std::size_t i = 0; i < img.size(); ++i) {
    scaled.storage()[i] = 2.5 * img.storage()[i] + 7.0;
  }
  EXPECT_NEAR(realspace_correlation(img, scaled), 1.0, 1e-12);
}

// ---- FSC -------------------------------------------------------------------------

TEST(Fsc, IdenticalVolumesGiveUnitCurve) {
  const BlobModel model = por::test::small_phantom(16, 10);
  const Volume<double> vol = model.rasterize(16);
  const FscCurve curve = fourier_shell_correlation(vol, vol);
  ASSERT_FALSE(curve.correlation.empty());
  for (double c : curve.correlation) EXPECT_NEAR(c, 1.0, 1e-9);
}

TEST(Fsc, IndependentNoiseDecorrelates) {
  util::Rng rng(5);
  Volume<double> a(16), b(16);
  for (double& v : a.storage()) v = rng.gaussian();
  for (double& v : b.storage()) v = rng.gaussian();
  const FscCurve curve = fourier_shell_correlation(a, b);
  // High shells contain many samples; correlation must be near zero.
  for (std::size_t s = 3; s < curve.correlation.size(); ++s) {
    EXPECT_LT(std::abs(curve.correlation[s]), 0.35) << "shell " << s;
  }
}

TEST(Fsc, LowPassedCopyLosesHighShellsOnly) {
  const BlobModel model = por::test::small_phantom(16, 10);
  const Volume<double> vol = model.rasterize(16);
  // Damage the high frequencies of a copy with independent noise.
  util::Rng rng(6);
  Volume<cdouble> spec = centered_fft3(vol);
  const double c = 8.0;
  for (std::size_t z = 0; z < 16; ++z) {
    for (std::size_t y = 0; y < 16; ++y) {
      for (std::size_t x = 0; x < 16; ++x) {
        const double r = std::sqrt((z - c) * (z - c) + (y - c) * (y - c) +
                                   (x - c) * (x - c));
        if (r > 5.0) {
          spec(z, y, x) = {rng.gaussian(), rng.gaussian()};
        }
      }
    }
  }
  const Volume<double> damaged = centered_ifft3(spec);
  const FscCurve curve = fourier_shell_correlation(vol, damaged);
  // Low shells stay correlated, high shells do not.
  EXPECT_GT(curve.correlation[1], 0.9);
  EXPECT_GT(curve.correlation[3], 0.9);
  EXPECT_LT(curve.correlation[7], 0.5);
}

// The full-spectrum FSC as it was before the half-spectrum rewrite,
// kept verbatim as the reference the rewrite is held to.
FscCurve full_spectrum_fsc(const Volume<double>& a, const Volume<double>& b) {
  const std::size_t l = a.nx();
  const Volume<cdouble> fa = centered_fft3(a);
  const Volume<cdouble> fb = centered_fft3(b);

  const std::size_t nshells = l / 2;
  std::vector<double> cross(nshells, 0.0), pa(nshells, 0.0), pb(nshells, 0.0);
  std::vector<double> radius_sum(nshells, 0.0);
  std::vector<std::size_t> counts(nshells, 0);

  const double c = std::floor(static_cast<double>(l) / 2.0);
  for (std::size_t z = 0; z < l; ++z) {
    const double kz = static_cast<double>(z) - c;
    for (std::size_t y = 0; y < l; ++y) {
      const double ky = static_cast<double>(y) - c;
      for (std::size_t x = 0; x < l; ++x) {
        const double kx = static_cast<double>(x) - c;
        const double radius = std::sqrt(kx * kx + ky * ky + kz * kz);
        const auto shell = static_cast<std::size_t>(std::floor(radius));
        if (shell >= nshells) continue;
        const cdouble va = fa(z, y, x), vb = fb(z, y, x);
        cross[shell] += (va * std::conj(vb)).real();
        pa[shell] += std::norm(va);
        pb[shell] += std::norm(vb);
        radius_sum[shell] += radius;
        ++counts[shell];
      }
    }
  }

  FscCurve curve;
  curve.shell_radius.reserve(nshells);
  curve.correlation.reserve(nshells);
  for (std::size_t s = 0; s < nshells; ++s) {
    if (counts[s] == 0) continue;
    const double denom = std::sqrt(pa[s] * pb[s]);
    curve.shell_radius.push_back(radius_sum[s] /
                                 static_cast<double>(counts[s]));
    curve.correlation.push_back(denom > 0.0 ? cross[s] / denom : 0.0);
  }
  return curve;
}

class FscEdges : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FscEdges, HalfSpectrumMatchesFullSpectrumReference) {
  // Phantom plus independent noise per copy: every shell carries a
  // different, nontrivial correlation.
  const std::size_t l = GetParam();
  const Volume<double> vol = por::test::small_phantom(l, 10).rasterize(l);
  util::Rng rng(21);
  Volume<double> a = vol, b = vol;
  for (double& v : a.storage()) v += 0.05 * rng.gaussian();
  for (double& v : b.storage()) v += 0.05 * rng.gaussian();
  const FscCurve half = fourier_shell_correlation(a, b);
  const FscCurve full = full_spectrum_fsc(a, b);
  ASSERT_EQ(half.correlation.size(), full.correlation.size());
  ASSERT_EQ(half.shell_radius.size(), full.shell_radius.size());
  for (std::size_t s = 0; s < full.correlation.size(); ++s) {
    EXPECT_NEAR(half.correlation[s], full.correlation[s], 1e-12)
        << "shell " << s;
    EXPECT_NEAR(half.shell_radius[s], full.shell_radius[s],
                1e-12 * full.shell_radius[s])
        << "shell " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(EvenAndOdd, FscEdges, ::testing::Values(16, 17));

TEST(Fsc, RejectsMismatchedVolumes) {
  EXPECT_THROW(
      (void)fourier_shell_correlation(Volume<double>(8), Volume<double>(9)),
      std::invalid_argument);
}

TEST(CrossingRadius, InterpolatesBetweenShells) {
  FscCurve curve;
  curve.shell_radius = {1.0, 2.0, 3.0, 4.0};
  curve.correlation = {1.0, 0.9, 0.1, 0.0};
  // 0.5 crossing between shells 2 and 3: t = (0.9-0.5)/(0.9-0.1) = 0.5.
  EXPECT_NEAR(crossing_radius(curve, 0.5), 2.5, 1e-12);
}

TEST(CrossingRadius, NeverBelowThresholdReturnsLastShell) {
  FscCurve curve;
  curve.shell_radius = {1.0, 2.0};
  curve.correlation = {0.99, 0.95};
  EXPECT_DOUBLE_EQ(crossing_radius(curve, 0.5), 2.0);
}

TEST(CrossingRadius, EmptyCurveThrows) {
  EXPECT_THROW((void)crossing_radius(FscCurve{}, 0.5), std::invalid_argument);
}

TEST(Resolution, RadiusToAngstrom) {
  // Box of 100 voxels at 2.8 A/px: shell radius 10 -> 28 A.
  EXPECT_NEAR(radius_to_resolution_a(10.0, 100, 2.8), 28.0, 1e-12);
  EXPECT_THROW((void)radius_to_resolution_a(0.0, 100, 2.8),
               std::invalid_argument);
}

TEST(VolumeCorrelation, SelfIsOne) {
  const Volume<double> vol = por::test::small_phantom(12, 8).rasterize(12);
  EXPECT_NEAR(volume_correlation(vol, vol), 1.0, 1e-12);
}

// ---- orientation errors ------------------------------------------------------------

TEST(OrientationErrors, ZeroForExactRecovery) {
  const std::vector<Orientation> truth{{10, 20, 30}, {40, 50, 60}};
  const auto errors =
      orientation_errors_deg(truth, truth, SymmetryGroup::identity());
  for (double e : errors) EXPECT_NEAR(e, 0.0, 1e-9);
}

TEST(OrientationErrors, SymmetryMateCountsAsCorrect) {
  const auto c4 = SymmetryGroup::cyclic(4);
  const std::vector<Orientation> truth{{30, 40, 10}};
  // The estimate is a left symmetry mate of the truth: same projection.
  const std::vector<Orientation> estimated{euler_from_matrix(
      Mat3::rot_z(std::numbers::pi / 2) * rotation_matrix(truth[0]))};
  const auto errors = orientation_errors_deg(estimated, truth, c4);
  EXPECT_NEAR(errors[0], 0.0, 1e-4);
}

TEST(OrientationErrors, SizeMismatchThrows) {
  EXPECT_THROW((void)orientation_errors_deg({{0, 0, 0}}, {},
                                            SymmetryGroup::identity()),
               std::invalid_argument);
}

TEST(Summarize, StatisticsAreCorrect) {
  const ErrorStats stats = summarize({1.0, 2.0, 3.0, 10.0});
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
  EXPECT_DOUBLE_EQ(stats.median, 2.5);
  EXPECT_DOUBLE_EQ(stats.max, 10.0);
  EXPECT_NEAR(stats.rms, std::sqrt((1.0 + 4.0 + 9.0 + 100.0) / 4.0), 1e-12);
  EXPECT_EQ(stats.count, 4u);
}

TEST(Summarize, OddCountMedian) {
  EXPECT_DOUBLE_EQ(summarize({3.0, 1.0, 2.0}).median, 2.0);
}

TEST(Summarize, EmptyIsAllZero) {
  const ErrorStats stats = summarize({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

}  // namespace
