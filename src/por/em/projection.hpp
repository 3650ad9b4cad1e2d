// por/em/projection.hpp
//
// Projection geometry: centered Fourier transforms, real-space
// projection, and central-section extraction from the 3D DFT.
//
// Centering convention.  Objects (particles) are centered on the voxel
// c = floor(l/2) of their lattice.  A "centered" transform measures
// phases about c and stores the zero frequency at index c, so the
// spectrum of a centered object is smooth and safe to interpolate —
// cutting an oblique section through the raw (origin-at-index-0) DFT
// of a centered object would interpolate a (-1)^k-modulated array and
// destroy the slice.  All Fourier-domain matching in the library works
// on centered spectra.
// v2 notes: the forward transforms run through the real-to-complex
// engine (fft::rfft2d_forward / rfft3d_forward — the inputs here are
// always real images/volumes), and the centering itself is one fused
// out-of-place pass: gather-with-shift multiplied by precomputed
// per-axis phase factors, instead of fftshift followed by a per-pixel
// sin/cos phase pass.
#pragma once

#include <cstdint>

#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/fft/centering.hpp"
#include "por/fft/fftnd.hpp"

namespace por::em {

// ---- centered transforms ---------------------------------------------------

/// Forward 2D DFT with phases about the image center and the zero
/// frequency at (ny/2, nx/2).
[[nodiscard]] Image<cdouble> centered_fft2(const Image<double>& img);

/// centered_fft2(pad_image(img, pad)) on the square `box` of the padded
/// spectrum only: every sample in box^2 is bitwise the full
/// transform's, every other one is zero.  The transform is pruned
/// (fft::rfft2d_pruned): row pairs run only where the padded image
/// holds input, column lines only for the kx <= n/2 that the box reads
/// directly or through the Hermitian mirror, and only the box is
/// centered.  Step (d) for the matcher, which reads nothing else.
[[nodiscard]] Image<cdouble> padded_centered_fft2(const Image<double>& img,
                                                  std::size_t pad,
                                                  fft::CubeCrop box);

/// Inverse of centered_fft2 (returns the real part).
[[nodiscard]] Image<double> centered_ifft2(const Image<cdouble>& spec);

/// Forward 3D DFT of a cubic volume with phases about the volume
/// center and the zero frequency at (n/2, n/2, n/2).
[[nodiscard]] Volume<cdouble> centered_fft3(const Volume<double>& vol);

/// Inverse of centered_fft3 (returns the real part).
[[nodiscard]] Volume<double> centered_ifft3(const Volume<cdouble>& spec);

/// centered_fft3(vol) restricted to `crop` of a cubic volume: the
/// crop.edge^3 samples from crop.origin on along every axis, each one
/// bitwise equal to the full transform's.  The matcher keeps only this
/// ball of the spectrum (fft::ball_crop of its matching radius).
[[nodiscard]] Volume<cdouble> centered_fft3(const Volume<double>& vol,
                                            fft::CubeCrop crop);

// ---- projection ------------------------------------------------------------

/// Real-space projection of `vol` along the view axis of `o`: the view
/// plane is spanned by R*x_hat (image x) and R*y_hat (image y) and the
/// ray direction is R*z_hat; trilinear sampling, `steps_per_voxel`
/// samples per voxel of ray length.  The projection image has the same
/// edge length as the (cubic) volume.
[[nodiscard]] Image<double> project_volume(const Volume<double>& vol,
                                           const Orientation& o,
                                           int steps_per_voxel = 2);

/// Cut the central section with orientation `o` out of a centered 3D
/// spectrum (paper step f): sample point for image frequency (ku, kv)
/// is q = ku * (R x_hat) + kv * (R y_hat), trilinear interpolation,
/// zero outside.  The result is the centered 2D spectrum that the
/// projection with orientation `o` would have.
[[nodiscard]] Image<cdouble> extract_central_slice(
    const Volume<cdouble>& centered_spectrum, const Orientation& o);

/// Multiply a centered 2D spectrum by the phase ramp that translates
/// the underlying image by (dx, dy) pixels (positive dx moves the image
/// toward +x).  This is how step (k) re-centers views without touching
/// pixel data.
void apply_translation_phase(Image<cdouble>& centered_spectrum, double dx,
                             double dy);

/// One-pass out-of-place variant: write `in` multiplied by the
/// (dx, dy) translation phase ramp into `out` (resized to match `in`
/// as needed; `out` may alias `in`).  The refiner uses this to
/// re-center its matching spectrum into a reused buffer instead of
/// copying the whole image and then mutating it.
void translate_phase_into(Image<cdouble>& out, const Image<cdouble>& in,
                          double dx, double dy);

/// translate_phase_into restricted to the flat pixel indices
/// `index[0 .. count)`: same formula per pixel, every other pixel of
/// `out` is left as it was (zero when `out` is resized here).  The
/// refiner re-centers only the matching annulus, the one part of its
/// spectrum the matcher reads.
void translate_phase_into(Image<cdouble>& out, const Image<cdouble>& in,
                          double dx, double dy, const std::uint32_t* index,
                          std::size_t count);

}  // namespace por::em
