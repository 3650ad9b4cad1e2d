#include "por/em/noise.hpp"

#include <cmath>

namespace por::em {

double image_variance(const Image<double>& img) {
  if (img.empty()) return 0.0;
  double mean = 0.0;
  for (double v : img.storage()) mean += v;
  mean /= static_cast<double>(img.size());
  double var = 0.0;
  for (double v : img.storage()) var += (v - mean) * (v - mean);
  return var / static_cast<double>(img.size());
}

void add_gaussian_noise(Image<double>& img, double snr, util::Rng& rng) {
  if (snr <= 0.0 || !std::isfinite(snr)) return;
  const double signal_var = image_variance(img);
  const double sigma = std::sqrt(signal_var / snr);
  // por-lint: allow(float-eq) sigma is exactly 0.0 only for an
  // all-constant image; adding zero-width noise is a no-op.
  if (sigma == 0.0) return;
  for (double& v : img.storage()) v += rng.gaussian(0.0, sigma);
}

}  // namespace por::em
