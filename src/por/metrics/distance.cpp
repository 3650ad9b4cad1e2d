#include "por/metrics/distance.hpp"

#include <cmath>
#include <stdexcept>

namespace por::metrics {

namespace {

void check_same_size(const em::Image<em::cdouble>& f,
                     const em::Image<em::cdouble>& c) {
  if (f.ny() != c.ny() || f.nx() != c.nx()) {
    throw std::invalid_argument("distance: spectra differ in size");
  }
}

/// Visit annulus pixels with their weight.
template <typename Fn>
void for_each_weighted(const em::Image<em::cdouble>& f,
                       const DistanceOptions& options, Fn&& fn) {
  const std::size_t ny = f.ny(), nx = f.nx();
  const double cy = std::floor(static_cast<double>(ny) / 2.0);
  const double cx = std::floor(static_cast<double>(nx) / 2.0);
  const double r_max =
      options.r_max > 0.0 ? options.r_max : std::hypot(cy, cx) + 1.0;
  for (std::size_t y = 0; y < ny; ++y) {
    const double ky = static_cast<double>(y) - cy;
    for (std::size_t x = 0; x < nx; ++x) {
      const double kx = static_cast<double>(x) - cx;
      const double radius = std::hypot(ky, kx);
      if (radius > r_max || radius < options.r_min) continue;
      const double weight = options.weighting == Weighting::kRadial
                                ? radius / r_max
                                : 1.0;
      fn(y, x, weight);
    }
  }
}

}  // namespace

double fourier_distance(const em::Image<em::cdouble>& f,
                        const em::Image<em::cdouble>& c,
                        const DistanceOptions& options) {
  check_same_size(f, c);
  double sum = 0.0;
  for_each_weighted(f, options, [&](std::size_t y, std::size_t x, double w) {
    const em::cdouble diff = f(y, x) - c(y, x);
    sum += w * std::norm(diff);
  });
  return sum / static_cast<double>(f.size());
}

double realspace_correlation(const em::Image<double>& a,
                             const em::Image<double>& b) {
  if (a.ny() != b.ny() || a.nx() != b.nx()) {
    throw std::invalid_argument("realspace_correlation: images differ in size");
  }
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a.storage()[i];
    mb += b.storage()[i];
  }
  ma /= n;
  mb /= n;
  double cross = 0.0, aa = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a.storage()[i] - ma;
    const double db = b.storage()[i] - mb;
    cross += da * db;
    aa += da * da;
    bb += db * db;
  }
  const double denom = std::sqrt(aa * bb);
  return denom > 0.0 ? cross / denom : 0.0;
}

}  // namespace por::metrics
