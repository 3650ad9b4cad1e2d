#include "por/em/ctf.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace por::em {

double electron_wavelength_a(double voltage_kv) {
  // lambda = 12.2639 / sqrt(V + 0.97845e-6 * V^2), V in volts.
  const double v = voltage_kv * 1e3;
  return 12.2639 / std::sqrt(v + 0.97845e-6 * v * v);
}

double ctf_value(const CtfParams& params, double s) {
  const double lambda = electron_wavelength_a(params.voltage_kv);
  const double cs_a = params.cs_mm * 1e7;  // mm -> Angstrom
  const double s2 = s * s;
  const double chi = std::numbers::pi * lambda * params.defocus_a * s2 -
                     0.5 * std::numbers::pi * cs_a * lambda * lambda * lambda *
                         s2 * s2;
  const double a = params.amplitude_contrast;
  double value = -(std::sqrt(1.0 - a * a) * std::sin(chi) + a * std::cos(chi));
  if (params.b_factor_a2 > 0.0) {
    value *= std::exp(-params.b_factor_a2 * s2 / 4.0);
  }
  return value;
}

namespace {

/// Visit every pixel of a centered spectrum inside the rows [y0, y1)
/// and columns [x0, x1) with its spatial frequency magnitude in
/// 1/Angstrom.
template <typename Fn>
void for_each_frequency(Image<cdouble>& spec, const CtfParams& params,
                        std::size_t y0, std::size_t y1, std::size_t x0,
                        std::size_t x1, Fn&& fn) {
  const std::size_t ny = spec.ny(), nx = spec.nx();
  const double cy = std::floor(static_cast<double>(ny) / 2.0);
  const double cx = std::floor(static_cast<double>(nx) / 2.0);
  for (std::size_t y = y0; y < y1; ++y) {
    const double fy = (static_cast<double>(y) - cy) /
                      (static_cast<double>(ny) * params.pixel_size_a);
    for (std::size_t x = x0; x < x1; ++x) {
      const double fx = (static_cast<double>(x) - cx) /
                        (static_cast<double>(nx) * params.pixel_size_a);
      fn(spec(y, x), std::sqrt(fx * fx + fy * fy));
    }
  }
}

}  // namespace

void apply_ctf(Image<cdouble>& centered_spectrum, const CtfParams& params) {
  for_each_frequency(centered_spectrum, params, 0, centered_spectrum.ny(), 0,
                     centered_spectrum.nx(),
                     [&](cdouble& value, double s) {
                       value *= ctf_value(params, s);
                     });
}

namespace {

void correct_rect(Image<cdouble>& centered_spectrum, const CtfParams& params,
                  CtfCorrection mode, double snr, std::size_t y0,
                  std::size_t y1, std::size_t x0, std::size_t x1) {
  if (mode == CtfCorrection::kWiener && snr <= 0.0) {
    throw std::invalid_argument("correct_ctf: Wiener filter needs snr > 0");
  }
  for_each_frequency(
      centered_spectrum, params, y0, y1, x0, x1, [&](cdouble& value, double s) {
        const double c = ctf_value(params, s);
        switch (mode) {
          case CtfCorrection::kPhaseFlip:
            if (c < 0.0) value = -value;
            break;
          case CtfCorrection::kWiener:
            value *= c / (c * c + 1.0 / snr);
            break;
        }
      });
}

}  // namespace

void correct_ctf(Image<cdouble>& centered_spectrum, const CtfParams& params,
                 CtfCorrection mode, double snr) {
  correct_rect(centered_spectrum, params, mode, snr, 0, centered_spectrum.ny(),
               0, centered_spectrum.nx());
}

void correct_ctf(Image<cdouble>& centered_spectrum, const CtfParams& params,
                 CtfCorrection mode, double snr, fft::CubeCrop box) {
  if (box.origin + box.edge > std::min(centered_spectrum.ny(),
                                       centered_spectrum.nx())) {
    throw std::invalid_argument("correct_ctf: box exceeds the spectrum");
  }
  correct_rect(centered_spectrum, params, mode, snr, box.origin,
               box.origin + box.edge, box.origin, box.origin + box.edge);
}

}  // namespace por::em
