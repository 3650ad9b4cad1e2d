#include "por/fft/centering.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace por::fft {

CubeCrop ball_crop(std::size_t n, double radius) {
  const double c = std::floor(static_cast<double>(n) / 2.0);
  if (!(radius >= 0.0) || radius > c) {
    throw std::invalid_argument("ball_crop: radius outside the cube");
  }
  const long last = static_cast<long>(n) - 1;
  const long lo =
      std::max<long>(0, static_cast<long>(std::floor(c - radius)) - 1);
  const long hi =
      std::min<long>(last, static_cast<long>(std::floor(c + radius)) + 2);
  return CubeCrop{static_cast<std::size_t>(lo),
                  static_cast<std::size_t>(hi - lo + 1)};
}

std::vector<cdouble> axis_phase(std::size_t n, double sign) {
  const double c = std::floor(static_cast<double>(n) / 2.0);
  std::vector<cdouble> phase(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double k = static_cast<double>(i) - c;
    const double angle =
        sign * 2.0 * std::numbers::pi * k * c / static_cast<double>(n);
    phase[i] = {std::cos(angle), std::sin(angle)};
  }
  return phase;
}

std::vector<cdouble> centered_crop(const cdouble* raw, std::size_t n,
                                   CubeCrop crop) {
  if (crop.origin + crop.edge > n) {
    throw std::invalid_argument("centered_crop: crop exceeds the cube");
  }
  const std::size_t o = crop.origin, e = crop.edge;
  const std::size_t shift = (n + 1) / 2;  // fftshift
  const std::vector<cdouble> phase = axis_phase(n, +1.0);
  std::vector<cdouble> out(e * e * e);
  for (std::size_t z = o; z < o + e; ++z) {
    const std::size_t zs = (z + shift) % n;
    for (std::size_t y = o; y < o + e; ++y) {
      const std::size_t ys = (y + shift) % n;
      fused_row(out.data() + ((z - o) * e + (y - o)) * e,
                raw + (zs * n + ys) * n, n, shift, phase[z] * phase[y], phase,
                /*phase_on_src=*/false, o, o + e);
    }
  }
  return out;
}

}  // namespace por::fft
