// por/em/ctf.hpp
//
// The microscope Contrast Transfer Function.
//
// "The relationship between the electron image of a specimen and the
// specimen itself is in part affected by the microscope CTF ...  The
// CTF is an oscillatory function that produces phase reversal and
// attenuates amplitudes in the DFT of a TEM image" (paper §3).  The
// simulated microscope multiplies each view's centered spectrum by
// this function; step (e) of the algorithm corrects it before
// matching.
#pragma once

#include "por/em/grid.hpp"
#include "por/fft/centering.hpp"

namespace por::em {

/// Imaging parameters of one micrograph.  All views boxed from the
/// same micrograph share one CtfParams (paper step e: "views
/// originated from the same micrograph have the same CTF").
struct CtfParams {
  double pixel_size_a = 2.8;        ///< Angstrom per pixel
  double voltage_kv = 300.0;        ///< accelerating voltage
  double cs_mm = 2.0;               ///< spherical aberration
  double defocus_a = 15000.0;       ///< underfocus (positive) in Angstrom
  double amplitude_contrast = 0.07; ///< fraction in [0, 1]
  double b_factor_a2 = 0.0;         ///< Gaussian envelope decay (A^2)
};

/// Relativistic electron wavelength in Angstrom.
[[nodiscard]] double electron_wavelength_a(double voltage_kv);

/// CTF value at spatial frequency `s` (1/Angstrom):
///   CTF(s) = -(sqrt(1 - A^2) sin(chi) + A cos(chi)) * exp(-B s^2 / 4)
///   chi(s) = pi * lambda * defocus * s^2 - (pi/2) Cs lambda^3 s^4.
[[nodiscard]] double ctf_value(const CtfParams& params, double s);

/// Multiply a centered spectrum by the CTF (the simulated microscope).
void apply_ctf(Image<cdouble>& centered_spectrum, const CtfParams& params);

/// How step (e) undoes the CTF before matching.
enum class CtfCorrection {
  kPhaseFlip,  ///< multiply by sign(CTF): fixes phase reversals only
  kWiener,     ///< multiply by CTF / (CTF^2 + 1/snr): also restores amplitude
};

/// Correct a centered spectrum in place.  `snr` is used by the Wiener
/// filter only.
void correct_ctf(Image<cdouble>& centered_spectrum, const CtfParams& params,
                 CtfCorrection mode, double snr = 10.0);

/// correct_ctf on the square `box` of a square spectrum only (the
/// pixels a matcher reads, em::padded_centered_fft2); every other pixel
/// is left as it is.  Each corrected pixel gets the full-image
/// arithmetic, bit for bit.
void correct_ctf(Image<cdouble>& centered_spectrum, const CtfParams& params,
                 CtfCorrection mode, double snr, fft::CubeCrop box);

}  // namespace por::em
