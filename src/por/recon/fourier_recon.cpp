#include "por/recon/fourier_recon.hpp"

#include <cmath>
#include <stdexcept>

#include "por/em/projection.hpp"

namespace por::recon {

FourierAccumulator::FourierAccumulator(std::size_t edge,
                                       const ReconOptions& opts)
    : l(edge), options(opts) {
  if (options.pad < 1) {
    throw std::invalid_argument("FourierAccumulator: pad must be >= 1");
  }
  const std::size_t big = l * options.pad;
  values = em::Volume<em::cdouble>(big, em::cdouble{0.0, 0.0});
  weights = em::Volume<double>(big, 0.0);
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
  em::Image<em::cdouble> spectrum =
      em::centered_fft2(em::pad_image(view, options.pad));
  // por-lint: allow(float-eq) exact-zero center skips the phase ramp
  // entirely (bit-identical fast path for centered particles).
  if (center_x != 0.0 || center_y != 0.0) {
    // The particle sits at +(cx, cy) off the box center; translating
    // the image by (-cx, -cy) re-centers it.
    em::apply_translation_phase(spectrum, -center_x, -center_y);
  }
  insert_spectrum(spectrum, o);
}

void FourierAccumulator::insert_spectrum(const em::Image<em::cdouble>& spectrum,
                                         const em::Orientation& o) {
  const std::size_t big = values.nx();
  if (spectrum.nx() != big || spectrum.ny() != big) {
    throw std::invalid_argument(
        "FourierAccumulator::insert_spectrum: spectrum size");
  }
  const em::Mat3 r = em::rotation_matrix(o);
  const em::Vec3 eu = r * em::Vec3{1, 0, 0};
  const em::Vec3 ev = r * em::Vec3{0, 1, 0};
  const double c = std::floor(static_cast<double>(big) / 2.0);
  const long nbig = static_cast<long>(big);

  for (std::size_t y = 0; y < big; ++y) {
    const double kv = static_cast<double>(y) - c;
    for (std::size_t x = 0; x < big; ++x) {
      const double ku = static_cast<double>(x) - c;
      if (std::sqrt(ku * ku + kv * kv) > options.r_max) continue;
      const em::cdouble sample = spectrum(y, x);
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
        if (zz < 0 || zz >= nbig) continue;
        const double wz = dz ? tz : 1.0 - tz;
        for (int dy = 0; dy < 2; ++dy) {
          const long yy = iy + dy;
          if (yy < 0 || yy >= nbig) continue;
          const double wy = dy ? ty : 1.0 - ty;
          for (int dx = 0; dx < 2; ++dx) {
            const long xx = ix + dx;
            if (xx < 0 || xx >= nbig) continue;
            const double w = wz * wy * (dx ? tx : 1.0 - tx);
            // por-lint: allow(float-eq) exact-zero weight skip
            if (w == 0.0) continue;
            values(static_cast<std::size_t>(zz), static_cast<std::size_t>(yy),
                   static_cast<std::size_t>(xx)) += w * sample;
            weights(static_cast<std::size_t>(zz), static_cast<std::size_t>(yy),
                    static_cast<std::size_t>(xx)) += w;
          }
        }
      }
    }
  }
  ++view_count;
}

em::Volume<double> FourierAccumulator::finish() const {
  const std::size_t big = values.nx();
  em::Volume<em::cdouble> normalized(big, em::cdouble{0.0, 0.0});
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    const double w = weights.storage()[i];
    if (w >= options.weight_floor) {
      normalized.storage()[i] = values.storage()[i] / w;
    }
  }
  const em::Volume<double> padded =
      em::centered_ifft3(normalized);
  // No extra scale: by the discrete projection-slice theorem the 2D
  // DFT of a projection equals the corresponding central section of
  // the 3D DFT sample-for-sample, so the weight-normalized grid IS an
  // estimate of the volume's DFT and the inverse transform restores
  // density units directly (verified against rasterized phantoms in
  // tests/test_recon.cpp).
  return em::crop_volume(padded, l);
}

void FourierAccumulator::merge(const FourierAccumulator& other) {
  if (other.values.size() != values.size()) {
    throw std::invalid_argument("FourierAccumulator::merge: size mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.storage()[i] += other.values.storage()[i];
    weights.storage()[i] += other.weights.storage()[i];
  }
  view_count += other.view_count;
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
