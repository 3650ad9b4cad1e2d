#include "por/recon/fourier_recon.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "por/em/projection.hpp"
#include "por/recon/parallel_recon.hpp"
#include "por/vmpi/runtime.hpp"

namespace por::recon {

FourierAccumulator::FourierAccumulator(std::size_t edge,
                                       const ReconOptions& opts)
    : l(edge), options(opts) {
  if (options.pad < 1) {
    throw std::invalid_argument("FourierAccumulator: pad must be >= 1");
  }
  const std::size_t big = l * options.pad;
  cells = em::Volume<GridCell>(big, big, big / 2 + 1);
  if (options.r_max <= 0.0) {
    options.r_max = static_cast<double>(big) / 2.0 - 1.0;
  }
}

void FourierAccumulator::insert(const em::Image<double>& view,
                                const em::Orientation& o, double center_x,
                                double center_y) {
  if (view.nx() != l || view.ny() != l) {
    throw std::invalid_argument("FourierAccumulator::insert: view size");
  }
  const em::Image<em::cdouble> spectrum =
      em::centered_fft2(em::pad_image(view, options.pad));
  const std::size_t big = spectrum.nx();
  const double c = std::floor(static_cast<double>(big) / 2.0);
  // The particle sits at +(cx, cy) off the box center; translating the
  // image by (-cx, -cy) re-centers it.  That phase ramp is separable,
  // exp(2 pi i ku cx / n) * exp(2 pi i kv cy / n), so it costs 2n
  // sin/cos pairs and is applied only to the samples splatted below.
  // por-lint: allow(float-eq) exact-zero center skips the phase ramp
  // entirely (bit-identical fast path for centered particles).
  const bool shifted = center_x != 0.0 || center_y != 0.0;
  std::vector<em::cdouble> ramp_u(shifted ? big : 0), ramp_v(shifted ? big : 0);
  for (std::size_t i = 0; shifted && i < big; ++i) {
    const double k = 2.0 * std::numbers::pi * (static_cast<double>(i) - c) /
                     static_cast<double>(big);
    ramp_u[i] = {std::cos(k * center_x), std::sin(k * center_x)};
    ramp_v[i] = {std::cos(k * center_y), std::sin(k * center_y)};
  }

  const em::Mat3 r = em::rotation_matrix(o);
  const em::Vec3 eu = r * em::Vec3{1, 0, 0};
  const em::Vec3 ev = r * em::Vec3{0, 1, 0};
  const long nbig = static_cast<long>(big);
  const long ci = nbig / 2;
  const auto inside = [&](long zz, long yy, long xx) {
    return zz >= 0 && zz < nbig && yy >= 0 && yy < nbig && xx >= ci &&
           xx < nbig;
  };
  const auto cell = [](long i) { return static_cast<std::size_t>(i); };
  // A real view's centered spectrum is Hermitian, so the samples at
  // -(ku, kv) splat the conjugates of these ones onto the mirror cells.
  // Only the half plane ku > 0, ku = 0 < kv is visited; the DC sample
  // is its own mirror and goes in at half weight, twice.
  for (std::size_t y = 0; y < big; ++y) {
    const double kv = static_cast<double>(y) - c;
    for (std::size_t x = big / 2; x < big; ++x) {
      if (x == big / 2 && y < big / 2) continue;
      const double ku = static_cast<double>(x) - c;
      if (std::sqrt(ku * ku + kv * kv) > options.r_max) continue;
      const double share = (x == big / 2 && y == big / 2) ? 0.5 : 1.0;
      const em::cdouble sample =
          shifted ? spectrum(y, x) * (ramp_u[x] * ramp_v[y]) : spectrum(y, x);
      const em::Vec3 q = ku * eu + kv * ev;
      const double pz = q.z + c, py = q.y + c, px = q.x + c;
      const long iz = static_cast<long>(std::floor(pz));
      const long iy = static_cast<long>(std::floor(py));
      const long ix = static_cast<long>(std::floor(px));
      const double tz = pz - static_cast<double>(iz);
      const double ty = py - static_cast<double>(iy);
      const double tx = px - static_cast<double>(ix);
      for (int dz = 0; dz < 2; ++dz) {
        const long zz = iz + dz;
        const double wz = dz ? tz : 1.0 - tz;
        for (int dy = 0; dy < 2; ++dy) {
          const long yy = iy + dy;
          const double wy = dy ? ty : 1.0 - ty;
          for (int dx = 0; dx < 2; ++dx) {
            const long xx = ix + dx;
            const double w = wz * wy * (dx ? tx : 1.0 - tx);
            // por-lint: allow(float-eq) exact-zero weight skip
            if (w == 0.0) continue;
            const double ws = share * w;
            const em::cdouble contribution = ws * sample;
            if (inside(zz, yy, xx)) {
              GridCell& g = cells(cell(zz), cell(yy), cell(xx - ci));
              g.value += contribution;
              g.weight += ws;
            }
            const long mz = 2 * ci - zz, my = 2 * ci - yy, mx = 2 * ci - xx;
            if (inside(mz, my, mx)) {
              GridCell& g = cells(cell(mz), cell(my), cell(mx - ci));
              g.value += std::conj(contribution);
              g.weight += ws;
            }
          }
        }
      }
    }
  }
}

em::Volume<double> FourierAccumulator::finish() const {
  em::Volume<double> map;
  (void)vmpi::run(1, [&](vmpi::Comm& comm) {
    map = finish_slab(comm, l, options, cells.data());
  });
  return map;
}

em::Volume<double> fourier_reconstruct(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers,
    const ReconOptions& options) {
  if (views.empty()) {
    throw std::invalid_argument("fourier_reconstruct: no views");
  }
  if (views.size() != orientations.size()) {
    throw std::invalid_argument("fourier_reconstruct: views/orientations");
  }
  if (!centers.empty() && centers.size() != views.size()) {
    throw std::invalid_argument("fourier_reconstruct: centers size");
  }
  FourierAccumulator acc(views.front().nx(), options);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const double cx = centers.empty() ? 0.0 : centers[i].first;
    const double cy = centers.empty() ? 0.0 : centers[i].second;
    acc.insert(views[i], orientations[i], cx, cy);
  }
  return acc.finish();
}

}  // namespace por::recon
