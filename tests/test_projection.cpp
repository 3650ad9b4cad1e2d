#include <gtest/gtest.h>

#include <cmath>

#include "por/em/interp.hpp"
#include "por/em/pad.hpp"
#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/fft/fftnd.hpp"
#include "por/util/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por::em;
namespace util = por::util;
using por::test::max_abs_diff;

Image<double> random_image(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Image<double> img(n, n);
  for (double& v : img.storage()) v = rng.uniform(-1, 1);
  return img;
}

Volume<double> random_volume(std::size_t l, std::uint64_t seed) {
  util::Rng rng(seed);
  Volume<double> vol(l);
  for (double& v : vol.storage()) v = rng.uniform(-1, 1);
  return vol;
}

// ---- centered transforms ------------------------------------------------------

TEST(CenteredFft, RoundTrip2d) {
  for (std::size_t n : {8u, 9u, 16u}) {
    const Image<double> img = random_image(n, n);
    const Image<double> back = centered_ifft2(centered_fft2(img));
    EXPECT_LT(max_abs_diff(back, img), 1e-10) << "n=" << n;
  }
}

TEST(CenteredFft, RoundTrip3d) {
  for (std::size_t l : {6u, 8u, 9u}) {
    const Volume<double> vol = random_volume(l, l);
    const Volume<double> back = centered_ifft3(centered_fft3(vol));
    EXPECT_LT(max_abs_diff(back, vol), 1e-10) << "l=" << l;
  }
}

TEST(CenteredFft, CenteredImpulseHasFlatRealSpectrum) {
  // The whole point of the centering convention: a delta at the CENTER
  // voxel transforms to a constant (no (-1)^k oscillation).
  const std::size_t n = 8;
  Image<double> img(n, n, 0.0);
  img(n / 2, n / 2) = 1.0;
  const Image<cdouble> spec = centered_fft2(img);
  for (const auto& v : spec.storage()) {
    EXPECT_NEAR(v.real(), 1.0, 1e-10);
    EXPECT_NEAR(v.imag(), 0.0, 1e-10);
  }
}

TEST(CenteredFft, ZeroFrequencyIsAtCenterAndEqualsSum) {
  const std::size_t n = 12;
  const Image<double> img = random_image(n, 5);
  double sum = 0.0;
  for (double v : img.storage()) sum += v;
  const Image<cdouble> spec = centered_fft2(img);
  EXPECT_NEAR(spec(n / 2, n / 2).real(), sum, 1e-9);
  EXPECT_NEAR(spec(n / 2, n / 2).imag(), 0.0, 1e-9);
}

TEST(CenteredFft, RawToCenteredMatchesDirect) {
  const std::size_t l = 8;
  const Volume<double> vol = random_volume(l, 9);
  Volume<cdouble> raw = to_complex(vol);
  por::fft::fft3d_forward(raw.data(), l, l, l);
  const std::vector<cdouble> via_raw =
      por::fft::centered_crop(raw.data(), l, por::fft::CubeCrop{0, l});
  const Volume<cdouble> direct = centered_fft3(vol);
  ASSERT_EQ(via_raw.size(), direct.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    worst = std::max(worst, std::abs(via_raw[i] - direct.storage()[i]));
  }
  EXPECT_LT(worst, 1e-10);
}

TEST(CenteredFft, CropIsBitwiseCropOfFullTransform) {
  // The matcher keeps only its r_map ball of the spectrum; every sample
  // of it must carry the full centered transform's bits.
  const std::size_t l = 12;
  const Volume<double> vol = random_volume(l, 10);
  const Volume<cdouble> full = centered_fft3(vol);
  for (const double radius : {1.0, 3.5, 5.0}) {
    const por::fft::CubeCrop crop = por::fft::ball_crop(l, radius);
    const Volume<cdouble> ball = centered_fft3(vol, crop);
    ASSERT_EQ(ball.nx(), crop.edge);
    for (std::size_t z = 0; z < crop.edge; ++z) {
      for (std::size_t y = 0; y < crop.edge; ++y) {
        for (std::size_t x = 0; x < crop.edge; ++x) {
          EXPECT_EQ(ball(z, y, x), full(crop.origin + z, crop.origin + y,
                                        crop.origin + x))
              << "radius " << radius << " at " << z << "," << y << "," << x;
        }
      }
    }
  }
}

// ---- interpolation -------------------------------------------------------------

TEST(Interp, BilinearReproducesLatticePoints) {
  const std::size_t n = 6;
  Image<cdouble> img(n, n);
  util::Rng rng(3);
  for (auto& v : img.storage()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      EXPECT_LT(std::abs(interp_bilinear(img, y, x) - img(y, x)), 1e-15);
    }
  }
}

TEST(Interp, BilinearIsExactOnAffineFields) {
  const std::size_t n = 8;
  Image<cdouble> img(n, n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      img(y, x) = {2.0 * x - 0.5 * y + 1.0, 0.0};
    }
  }
  EXPECT_NEAR(interp_bilinear(img, 2.25, 3.75).real(),
              2.0 * 3.75 - 0.5 * 2.25 + 1.0, 1e-12);
}

TEST(Interp, OutsideIsZero) {
  Image<cdouble> img(4, 4, {1.0, 0.0});
  EXPECT_EQ(interp_bilinear(img, -2.0, 1.0), cdouble(0.0, 0.0));
  EXPECT_EQ(interp_bilinear(img, 1.0, 9.0), cdouble(0.0, 0.0));
  Volume<cdouble> vol(4, {1.0, 0.0});
  EXPECT_EQ(interp_trilinear(vol, 1.0, 1.0, -5.0), cdouble(0.0, 0.0));
}

TEST(Interp, TrilinearIsExactOnAffineFields) {
  const std::size_t l = 6;
  Volume<double> vol(l);
  for (std::size_t z = 0; z < l; ++z) {
    for (std::size_t y = 0; y < l; ++y) {
      for (std::size_t x = 0; x < l; ++x) {
        vol(z, y, x) = 1.0 * z - 2.0 * y + 3.0 * x + 0.5;
      }
    }
  }
  EXPECT_NEAR(interp_trilinear(vol, 2.5, 3.25, 1.75),
              1.0 * 2.5 - 2.0 * 3.25 + 3.0 * 1.75 + 0.5, 1e-12);
}

// ---- projection-slice theorem ---------------------------------------------------

TEST(ProjectionSlice, IdentityOrientationIsExact) {
  const BlobModel model = por::test::small_phantom(16, 8);
  const Volume<double> vol = pad_volume(model.rasterize(16), 2);
  const Volume<cdouble> spec3 = centered_fft3(vol);
  const Image<double> proj = pad_image(model.project_analytic(16, {0, 0, 0}), 2);
  const Image<cdouble> f = centered_fft2(proj);
  const Image<cdouble> cut = extract_central_slice(spec3, {0, 0, 0});
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    num += std::norm(f.storage()[i] - cut.storage()[i]);
    den += std::norm(f.storage()[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 0.01);
}

TEST(ProjectionSlice, ObliqueOrientationAgreesWithPadding) {
  const BlobModel model = por::test::small_phantom(16, 8);
  const Volume<double> vol = pad_volume(model.rasterize(16), 2);
  const Volume<cdouble> spec3 = centered_fft3(vol);
  for (const Orientation o : {Orientation{37.5, 112.0, 61.0},
                              Orientation{90, 45, 10}}) {
    const Image<double> proj = pad_image(model.project_analytic(16, o), 2);
    const Image<cdouble> f = centered_fft2(proj);
    const Image<cdouble> cut = extract_central_slice(spec3, o);
    double num = 0.0, den = 0.0;
    const double c = 16.0;  // padded center
    for (std::size_t y = 0; y < f.ny(); ++y) {
      for (std::size_t x = 0; x < f.nx(); ++x) {
        const double r = std::hypot(static_cast<double>(y) - c,
                                    static_cast<double>(x) - c);
        if (r > 14.0) continue;  // inside the information limit
        num += std::norm(f(y, x) - cut(y, x));
        den += std::norm(f(y, x));
      }
    }
    EXPECT_LT(std::sqrt(num / den), 0.15) << "theta=" << o.theta;
  }
}

TEST(ProjectionSlice, OmegaOnlyAffectsInPlaneRotation) {
  // Slices at (t, p, w) and (t, p, 0) contain the same samples rotated
  // in-plane; the DC sample in particular is identical.
  const BlobModel model = por::test::small_phantom(16, 8);
  const Volume<cdouble> spec3 = centered_fft3(pad_volume(model.rasterize(16), 2));
  const Image<cdouble> a = extract_central_slice(spec3, {40, 70, 0});
  const Image<cdouble> b = extract_central_slice(spec3, {40, 70, 55});
  EXPECT_LT(std::abs(a(16, 16) - b(16, 16)), 1e-12);
  // Total power on a ring is rotation-invariant (up to interpolation).
  auto ring_power = [](const Image<cdouble>& s) {
    double power = 0.0;
    for (std::size_t y = 0; y < s.ny(); ++y) {
      for (std::size_t x = 0; x < s.nx(); ++x) {
        const double r = std::hypot(static_cast<double>(y) - 16.0,
                                    static_cast<double>(x) - 16.0);
        if (r >= 4.0 && r < 8.0) power += std::norm(s(y, x));
      }
    }
    return power;
  };
  EXPECT_NEAR(ring_power(a), ring_power(b), 0.12 * ring_power(a));
}

// ---- translation phase -----------------------------------------------------------

TEST(TranslationPhase, MatchesPixelShift) {
  // Translating via the phase ramp must match translating the image.
  const std::size_t n = 16;
  BlobModel model;
  model.add(Blob{{0.5, -1.0, 0.0}, 1.5, 1.0});
  const Image<double> base = model.project_analytic(n, {0, 0, 0});
  const Image<double> moved = model.project_analytic(n, {0, 0, 0}, 2.0, 3.0);
  Image<cdouble> spec = centered_fft2(base);
  apply_translation_phase(spec, 2.0, 3.0);
  const Image<double> via_phase = centered_ifft2(spec);
  // Compare away from the borders (circular wrap differs there).
  double worst = 0.0;
  for (std::size_t y = 4; y < n - 4; ++y) {
    for (std::size_t x = 4; x < n - 4; ++x) {
      worst = std::max(worst, std::abs(via_phase(y, x) - moved(y, x)));
    }
  }
  EXPECT_LT(worst, 1e-6);
}

TEST(TranslationPhase, InverseShiftRestoresImage) {
  const Image<double> img = random_image(12, 8);
  Image<cdouble> spec = centered_fft2(img);
  apply_translation_phase(spec, 1.3, -0.7);
  apply_translation_phase(spec, -1.3, 0.7);
  const Image<double> back = centered_ifft2(spec);
  EXPECT_LT(max_abs_diff(back, img), 1e-10);
}

TEST(TranslationPhase, ZeroShiftIsIdentity) {
  const Image<double> img = random_image(10, 2);
  Image<cdouble> spec = centered_fft2(img);
  const Image<cdouble> before = spec;
  apply_translation_phase(spec, 0.0, 0.0);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    EXPECT_EQ(spec.storage()[i], before.storage()[i]);
  }
}

// ---- real-space projector ----------------------------------------------------------

TEST(ProjectVolume, AxisAlignedEqualsColumnSum) {
  const std::size_t l = 8;
  const Volume<double> vol = random_volume(l, 21);
  const Image<double> proj = project_volume(vol, {0, 0, 0}, 4);
  // Along z at orientation identity, each pixel is the z-column sum.
  for (std::size_t y = 1; y + 1 < l; ++y) {
    for (std::size_t x = 1; x + 1 < l; ++x) {
      double column = 0.0;
      for (std::size_t z = 0; z < l; ++z) column += vol(z, y, x);
      EXPECT_NEAR(proj(y, x), column, 0.25 * std::abs(column) + 0.35)
          << y << "," << x;
    }
  }
}

}  // namespace
