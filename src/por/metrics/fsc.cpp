#include "por/metrics/fsc.hpp"

#include <cmath>
#include <stdexcept>

#include "por/fft/fftnd.hpp"

namespace por::metrics {

FscCurve fourier_shell_correlation(const em::Volume<double>& a,
                                   const em::Volume<double>& b) {
  if (a.nz() != b.nz() || a.ny() != b.ny() || a.nx() != b.nx()) {
    throw std::invalid_argument("fsc: volumes differ in size");
  }
  if (!a.is_cube()) {
    throw std::invalid_argument("fsc: volumes must be cubic");
  }
  const std::size_t l = a.nx();
  const std::size_t hx = l / 2 + 1;
  // Raw half spectra: the library's centering multiplies a and b by the
  // same unit phase per frequency, which cancels in a * conj(b), |a|^2
  // and |b|^2, and the kx < 0 half holds the conjugates of kx > 0.
  std::vector<em::cdouble> fa(l * l * hx), fb(l * l * hx);
  fft::rfft3d_half(a.data(), fa.data(), l, l, l);
  fft::rfft3d_half(b.data(), fb.data(), l, l, l);

  const std::size_t nshells = l / 2;
  std::vector<double> cross(nshells, 0.0), pa(nshells, 0.0), pb(nshells, 0.0);
  std::vector<double> radius_sum(nshells, 0.0);
  std::vector<std::size_t> counts(nshells, 0);

  // Raw index r is frequency r below l - floor(l/2), r - l from there on
  // (the centered convention's range).
  const std::size_t positive = l - l / 2;
  const auto frequency = [&](std::size_t r) {
    return r < positive ? static_cast<double>(r)
                        : static_cast<double>(r) - static_cast<double>(l);
  };
  for (std::size_t z = 0; z < l; ++z) {
    const double kz = frequency(z);
    for (std::size_t y = 0; y < l; ++y) {
      const double ky = frequency(y);
      const std::size_t row = (z * l + y) * hx;
      for (std::size_t x = 0; x < hx; ++x) {
        const double kx = static_cast<double>(x);
        const double radius = std::sqrt(kx * kx + ky * ky + kz * kz);
        const auto shell = static_cast<std::size_t>(std::floor(radius));
        if (shell >= nshells) continue;
        // Column kx > 0 also stands for its mirror -kx, unless (even l,
        // kx = l/2) the mirror is the column itself.
        const std::size_t copies = (x == 0 || 2 * x == l) ? 1 : 2;
        const double weight = static_cast<double>(copies);
        const em::cdouble va = fa[row + x], vb = fb[row + x];
        cross[shell] += weight * (va * std::conj(vb)).real();
        pa[shell] += weight * std::norm(va);
        pb[shell] += weight * std::norm(vb);
        radius_sum[shell] += weight * radius;
        counts[shell] += copies;
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

double crossing_radius(const FscCurve& curve, double threshold) {
  if (curve.correlation.empty()) {
    throw std::invalid_argument("crossing_radius: empty curve");
  }
  for (std::size_t i = 0; i < curve.correlation.size(); ++i) {
    if (curve.correlation[i] < threshold) {
      if (i == 0) return curve.shell_radius[0];
      // Interpolate between the previous (above) and this (below) shell.
      const double c0 = curve.correlation[i - 1], c1 = curve.correlation[i];
      const double r0 = curve.shell_radius[i - 1], r1 = curve.shell_radius[i];
      const double t = (c0 - threshold) / (c0 - c1);
      return r0 + t * (r1 - r0);
    }
  }
  return curve.shell_radius.back();
}

double radius_to_resolution_a(double radius, std::size_t l,
                              double pixel_size_a) {
  if (radius <= 0.0) {
    throw std::invalid_argument("radius_to_resolution_a: radius must be > 0");
  }
  return static_cast<double>(l) * pixel_size_a / radius;
}

double volume_correlation(const em::Volume<double>& a,
                          const em::Volume<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("volume_correlation: size mismatch");
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
