#include "por/em/projection.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "por/em/interp.hpp"
#include "por/em/pad.hpp"
#include "por/util/contracts.hpp"

namespace por::em {

namespace {

using fft::axis_phase;

/// Raw spectrum (origin at index 0) -> centered spectrum: fftshift
/// fused with the +1 center phase in one out-of-place pass.
void centerize2(Image<cdouble>& spec) {
  const std::size_t ny = spec.ny(), nx = spec.nx();
  if (ny == 0 || nx == 0) return;
  const std::size_t sy = (ny + 1) / 2, sx = (nx + 1) / 2;  // fftshift
  const std::vector<cdouble> py = axis_phase(ny, +1.0);
  const std::vector<cdouble> px = axis_phase(nx, +1.0);
  Image<cdouble> out(ny, nx);
  for (std::size_t y = 0; y < ny; ++y) {
    const std::size_t ys = (y + sy) % ny;
    fft::fused_row(&out(y, 0), &spec(ys, 0), nx, sx, py[y], px,
                   /*phase_on_src=*/false, 0, nx);
  }
  spec = std::move(out);
}

/// Centered spectrum -> raw spectrum: the -1 center phase fused with
/// ifftshift.  The phase belongs to the *source* (centered) index.
void decenterize2(Image<cdouble>& spec) {
  const std::size_t ny = spec.ny(), nx = spec.nx();
  if (ny == 0 || nx == 0) return;
  const std::size_t sy = ny / 2, sx = nx / 2;  // ifftshift
  const std::vector<cdouble> py = axis_phase(ny, -1.0);
  const std::vector<cdouble> px = axis_phase(nx, -1.0);
  Image<cdouble> out(ny, nx);
  for (std::size_t y = 0; y < ny; ++y) {
    const std::size_t ys = (y + sy) % ny;
    fft::fused_row(&out(y, 0), &spec(ys, 0), nx, sx, py[ys], px,
                   /*phase_on_src=*/true, 0, nx);
  }
  spec = std::move(out);
}

void decenterize3(Volume<cdouble>& spec) {
  const std::size_t nz = spec.nz(), ny = spec.ny(), nx = spec.nx();
  if (nz == 0 || ny == 0 || nx == 0) return;
  const std::size_t sz = nz / 2, sy = ny / 2, sx = nx / 2;
  const std::vector<cdouble> pz = axis_phase(nz, -1.0);
  const std::vector<cdouble> py = axis_phase(ny, -1.0);
  const std::vector<cdouble> px = axis_phase(nx, -1.0);
  Volume<cdouble> out(nz, ny, nx);
  for (std::size_t z = 0; z < nz; ++z) {
    const std::size_t zs = (z + sz) % nz;
    for (std::size_t y = 0; y < ny; ++y) {
      const std::size_t ys = (y + sy) % ny;
      fft::fused_row(&out(z, y, 0), &spec(zs, ys, 0), nx, sx,
                     pz[zs] * py[ys], px, /*phase_on_src=*/true, 0, nx);
    }
  }
  spec = std::move(out);
}

}  // namespace

Image<cdouble> centered_fft2(const Image<double>& img) {
  Image<cdouble> spec(img.ny(), img.nx());
  fft::rfft2d_forward(img.data(), spec.data(), spec.ny(), spec.nx());
  centerize2(spec);
  return spec;
}

Image<cdouble> padded_centered_fft2(const Image<double>& img, std::size_t pad,
                                    fft::CubeCrop box) {
  const std::size_t l = img.nx();
  if (img.ny() != l) {
    throw std::invalid_argument("padded_centered_fft2: image not square");
  }
  const Image<double> padded = pad_image(img, pad);
  const std::size_t n = padded.nx();
  if (box.origin + box.edge > n) {
    throw std::invalid_argument("padded_centered_fft2: box exceeds the image");
  }
  Image<cdouble> out(n, n);
  const std::size_t half = n / 2;
  const std::size_t shift = (n + 1) / 2;  // fftshift
  const std::size_t b = box.origin, e = box.edge;
  // Raw column of centered x, and the half-spectrum column kx <= n/2
  // it is read from (itself, or its Hermitian mirror n - kx).
  const auto raw = [&](std::size_t x) { return (x + shift) % n; };
  std::size_t cols = 0;
  for (std::size_t x = b; x < b + e; ++x) {
    const std::size_t xs = raw(x);
    cols = std::max(cols, (xs <= half ? xs : n - xs) + 1);
  }
  std::vector<cdouble> spectrum(n * cols);
  const std::size_t off = n / 2 - l / 2;  // pad_image's placement
  fft::rfft2d_pruned(padded.data(), spectrum.data(), n, n, off, off + l, cols,
                     cols);
  // Gather each box row in centered order — rfft2d_forward's mirror
  // fill for kx > n/2 — then center it with fused_row's arithmetic.
  const std::vector<cdouble> phase = axis_phase(n, +1.0);
  std::vector<cdouble> row(e);
  for (std::size_t y = b; y < b + e; ++y) {
    const std::size_t ys = raw(y);
    const cdouble* direct = spectrum.data() + ys * cols;
    const cdouble* mirror = spectrum.data() + ((n - ys) % n) * cols;
    for (std::size_t i = 0; i < e; ++i) {
      const std::size_t xs = raw(b + i);
      row[i] = xs <= half ? direct[xs] : std::conj(mirror[n - xs]);
    }
    fft::phased_row(&out(y, b), row.data(), e, phase[y], phase.data() + b);
  }
  return out;
}

Image<double> centered_ifft2(const Image<cdouble>& spec) {
  Image<cdouble> work = spec;
  decenterize2(work);
  fft::fft2d_inverse(work.data(), work.ny(), work.nx());
  return real_part(work);
}

Volume<cdouble> centered_fft3(const Volume<double>& vol) {
  return centered_fft3(vol, fft::CubeCrop{0, vol.nx()});
}

Volume<cdouble> centered_fft3(const Volume<double>& vol, fft::CubeCrop crop) {
  if (!vol.is_cube()) {
    throw std::invalid_argument("centered_fft3: volume must be cubic");
  }
  const std::size_t n = vol.nx();
  std::vector<cdouble> raw(vol.size());
  fft::rfft3d_forward(vol.data(), raw.data(), n, n, n);
  Volume<cdouble> out(crop.edge);
  out.storage() = fft::centered_crop(raw.data(), n, crop);
  return out;
}

Volume<double> centered_ifft3(const Volume<cdouble>& spec) {
  Volume<cdouble> work = spec;
  decenterize3(work);
  fft::fft3d_inverse(work.data(), work.nz(), work.ny(), work.nx());
  return real_part(work);
}

Image<double> project_volume(const Volume<double>& vol, const Orientation& o,
                             int steps_per_voxel) {
  const std::size_t l = vol.nx();
  Image<double> out(vol.ny(), vol.nx(), 0.0);
  const Mat3 r = rotation_matrix(o);
  const Vec3 eu = r * Vec3{1, 0, 0};
  const Vec3 ev = r * Vec3{0, 1, 0};
  const Vec3 ew = r * Vec3{0, 0, 1};
  const double c = std::floor(static_cast<double>(l) / 2.0);
  const double step = 1.0 / steps_per_voxel;
  const double half_span = static_cast<double>(l) / 2.0;

  for (std::size_t y = 0; y < out.ny(); ++y) {
    const double v = static_cast<double>(y) - c;
    for (std::size_t x = 0; x < out.nx(); ++x) {
      const double u = static_cast<double>(x) - c;
      double acc = 0.0;
      for (double w = -half_span; w <= half_span; w += step) {
        const Vec3 p = u * eu + v * ev + w * ew;
        acc += interp_trilinear(vol, p.z + c, p.y + c, p.x + c);
      }
      out(y, x) = acc * step;
    }
  }
  return out;
}

Image<cdouble> extract_central_slice(const Volume<cdouble>& centered_spectrum,
                                     const Orientation& o) {
  const std::size_t l = centered_spectrum.nx();
  Image<cdouble> slice(l, l);
  const Mat3 r = rotation_matrix(o);
  const Vec3 eu = r * Vec3{1, 0, 0};
  const Vec3 ev = r * Vec3{0, 1, 0};
  const double c = std::floor(static_cast<double>(l) / 2.0);

  for (std::size_t y = 0; y < l; ++y) {
    const double kv = static_cast<double>(y) - c;
    for (std::size_t x = 0; x < l; ++x) {
      const double ku = static_cast<double>(x) - c;
      const Vec3 q = ku * eu + kv * ev;
      slice(y, x) =
          interp_trilinear(centered_spectrum, q.z + c, q.y + c, q.x + c);
    }
  }
  return slice;
}

void apply_translation_phase(Image<cdouble>& centered_spectrum, double dx,
                             double dy) {
  translate_phase_into(centered_spectrum, centered_spectrum, dx, dy);
}

namespace {

/// The (dx, dy) translation phase of centered frequency (kx, ky):
/// translating the image by (+dx, +dy) multiplies its spectrum by
/// exp(-2*pi*i*(kx*dx/nx + ky*dy/ny)).
cdouble translation_phase(double kx, double ky, double dx, double dy,
                          std::size_t nx, std::size_t ny) {
  const double angle = -2.0 * std::numbers::pi *
                       (kx * dx / static_cast<double>(nx) +
                        ky * dy / static_cast<double>(ny));
  return {std::cos(angle), std::sin(angle)};
}

}  // namespace

void translate_phase_into(Image<cdouble>& out, const Image<cdouble>& in,
                          double dx, double dy) {
  const std::size_t ny = in.ny(), nx = in.nx();
  if (&out != &in && (out.ny() != ny || out.nx() != nx)) {
    out = Image<cdouble>(ny, nx);
  }
  const double cy = std::floor(static_cast<double>(ny) / 2.0);
  const double cx = std::floor(static_cast<double>(nx) / 2.0);
  for (std::size_t y = 0; y < ny; ++y) {
    const double ky = static_cast<double>(y) - cy;
    for (std::size_t x = 0; x < nx; ++x) {
      const double kx = static_cast<double>(x) - cx;
      out(y, x) = in(y, x) * translation_phase(kx, ky, dx, dy, nx, ny);
    }
  }
}

void translate_phase_into(Image<cdouble>& out, const Image<cdouble>& in,
                          double dx, double dy, const std::uint32_t* index,
                          std::size_t count) {
  const std::size_t ny = in.ny(), nx = in.nx();
  if (&out != &in && (out.ny() != ny || out.nx() != nx)) {
    out = Image<cdouble>(ny, nx);
  }
  const double cy = std::floor(static_cast<double>(ny) / 2.0);
  const double cx = std::floor(static_cast<double>(nx) / 2.0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t y = index[i] / nx, x = index[i] % nx;
    const double ky = static_cast<double>(y) - cy;
    const double kx = static_cast<double>(x) - cx;
    out(y, x) = in(y, x) * translation_phase(kx, ky, dx, dy, nx, ny);
  }
}

}  // namespace por::em
