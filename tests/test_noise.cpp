#include <gtest/gtest.h>

#include <cmath>

#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por::em;
namespace util = por::util;

TEST(ImageVariance, KnownValues) {
  Image<double> img(2, 2);
  img(0, 0) = 1.0;
  img(0, 1) = 1.0;
  img(1, 0) = 3.0;
  img(1, 1) = 3.0;
  EXPECT_DOUBLE_EQ(image_variance(img), 1.0);
  Image<double> flat(4, 4, 2.5);
  EXPECT_DOUBLE_EQ(image_variance(flat), 0.0);
  EXPECT_DOUBLE_EQ(image_variance(Image<double>{}), 0.0);
}

TEST(AddNoise, CalibratedToRequestedSnr) {
  const BlobModel model = por::test::small_phantom(32, 15);
  const Image<double> clean = model.project_analytic(32, {45, 90, 0});
  const double signal_var = image_variance(clean);
  for (double snr : {0.5, 2.0, 10.0}) {
    // Average the noise variance estimate over several realizations.
    double noise_var_sum = 0.0;
    const int trials = 8;
    for (int t = 0; t < trials; ++t) {
      util::Rng rng(100 + t);
      Image<double> noisy = clean;
      add_gaussian_noise(noisy, snr, rng);
      Image<double> diff(noisy.ny(), noisy.nx());
      for (std::size_t i = 0; i < diff.size(); ++i) {
        diff.storage()[i] = noisy.storage()[i] - clean.storage()[i];
      }
      noise_var_sum += image_variance(diff);
    }
    const double measured_snr = signal_var / (noise_var_sum / trials);
    EXPECT_NEAR(measured_snr, snr, 0.2 * snr) << "snr=" << snr;
  }
}

TEST(AddNoise, NonPositiveSnrIsNoop) {
  const BlobModel model = por::test::small_phantom(16, 5);
  const Image<double> clean = model.project_analytic(16, {0, 0, 0});
  util::Rng rng(1);
  Image<double> a = clean;
  add_gaussian_noise(a, 0.0, rng);
  EXPECT_EQ(a, clean);
  Image<double> b = clean;
  add_gaussian_noise(b, -3.0, rng);
  EXPECT_EQ(b, clean);
}

TEST(AddNoise, ConstantImageUnchanged) {
  Image<double> flat(8, 8, 1.0);
  util::Rng rng(2);
  add_gaussian_noise(flat, 1.0, rng);  // zero signal variance -> no noise
  EXPECT_EQ(flat, Image<double>(8, 8, 1.0));
}

TEST(AddNoise, DeterministicGivenSeed) {
  const BlobModel model = por::test::small_phantom(16, 5);
  Image<double> a = model.project_analytic(16, {0, 0, 0});
  Image<double> b = a;
  util::Rng rng_a(9), rng_b(9);
  add_gaussian_noise(a, 1.0, rng_a);
  add_gaussian_noise(b, 1.0, rng_b);
  EXPECT_EQ(a, b);
}

}  // namespace
