#include "por/em/phantom.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "por/util/rng.hpp"

namespace por::em {

void BlobModel::add_symmetrized(const Blob& blob, const SymmetryGroup& group) {
  for (const auto& op : group.operations()) {
    blobs_.push_back(Blob{op * blob.center, blob.sigma, blob.amplitude});
  }
}

BlobModel BlobModel::rotated(const Mat3& r) const {
  BlobModel out;
  for (const auto& b : blobs_) {
    out.add(Blob{r * b.center, b.sigma, b.amplitude});
  }
  return out;
}

Volume<double> BlobModel::rasterize(std::size_t l) const {
  Volume<double> vol(l, 0.0);
  const double c = std::floor(static_cast<double>(l) / 2.0);
  const long nl = static_cast<long>(l);
  for (const auto& b : blobs_) {
    const double reach = 4.0 * b.sigma;
    const double bx = b.center.x + c, by = b.center.y + c, bz = b.center.z + c;
    const long z0 = std::max<long>(0, static_cast<long>(std::ceil(bz - reach)));
    const long z1 = std::min<long>(nl - 1, static_cast<long>(std::floor(bz + reach)));
    const long y0 = std::max<long>(0, static_cast<long>(std::ceil(by - reach)));
    const long y1 = std::min<long>(nl - 1, static_cast<long>(std::floor(by + reach)));
    const long x0 = std::max<long>(0, static_cast<long>(std::ceil(bx - reach)));
    const long x1 = std::min<long>(nl - 1, static_cast<long>(std::floor(bx + reach)));
    const double inv2s2 = 1.0 / (2.0 * b.sigma * b.sigma);
    for (long z = z0; z <= z1; ++z) {
      const double dz = static_cast<double>(z) - bz;
      for (long y = y0; y <= y1; ++y) {
        const double dy = static_cast<double>(y) - by;
        for (long x = x0; x <= x1; ++x) {
          const double dx = static_cast<double>(x) - bx;
          const double r2 = dx * dx + dy * dy + dz * dz;
          vol(static_cast<std::size_t>(z), static_cast<std::size_t>(y),
              static_cast<std::size_t>(x)) +=
              b.amplitude * std::exp(-r2 * inv2s2);
        }
      }
    }
  }
  return vol;
}

Image<double> BlobModel::project_analytic(std::size_t l, const Orientation& o,
                                          double dx, double dy) const {
  Image<double> img(l, l, 0.0);
  const Mat3 r = rotation_matrix(o);
  const Vec3 eu = r * Vec3{1, 0, 0};
  const Vec3 ev = r * Vec3{0, 1, 0};
  const double c = std::floor(static_cast<double>(l) / 2.0);
  const long nl = static_cast<long>(l);
  for (const auto& b : blobs_) {
    // Blob center in view-plane coordinates, then to pixel coordinates
    // of a particle whose center sits at (c + dx, c + dy).
    const double u = eu.dot(b.center) + c + dx;
    const double v = ev.dot(b.center) + c + dy;
    const double line_amp =
        b.amplitude * b.sigma * std::sqrt(2.0 * std::numbers::pi);
    const double reach = 4.0 * b.sigma;
    const long y0 = std::max<long>(0, static_cast<long>(std::ceil(v - reach)));
    const long y1 = std::min<long>(nl - 1, static_cast<long>(std::floor(v + reach)));
    const long x0 = std::max<long>(0, static_cast<long>(std::ceil(u - reach)));
    const long x1 = std::min<long>(nl - 1, static_cast<long>(std::floor(u + reach)));
    const double inv2s2 = 1.0 / (2.0 * b.sigma * b.sigma);
    for (long y = y0; y <= y1; ++y) {
      const double py = static_cast<double>(y) - v;
      for (long x = x0; x <= x1; ++x) {
        const double px = static_cast<double>(x) - u;
        img(static_cast<std::size_t>(y), static_cast<std::size_t>(x)) +=
            line_amp * std::exp(-(px * px + py * py) * inv2s2);
      }
    }
  }
  return img;
}

namespace {

/// Random unit vector inside the icosahedral asymmetric unit, so the
/// symmetrized copies do not collide with each other.
Vec3 random_asym_unit_direction(util::Rng& rng,
                                const IcosahedralAsymmetricUnit& au) {
  for (;;) {
    double theta, phi;
    rng.sphere_point(theta, phi);
    const Vec3 dir{std::sin(theta) * std::cos(phi),
                   std::sin(theta) * std::sin(phi), std::cos(theta)};
    if (au.contains(dir)) return dir;
  }
}

}  // namespace

BlobModel make_sindbis_like(const PhantomSpec& spec) {
  util::Rng rng(spec.seed);
  const auto icos = SymmetryGroup::icosahedral();
  const IcosahedralAsymmetricUnit au;
  const double l = static_cast<double>(spec.l);
  BlobModel model;
  // Outer glycoprotein shell (E1/E2 spikes) and inner nucleocapsid.
  const double shell_radii[2] = {0.36 * l, 0.24 * l};
  const double sigmas[2] = {0.035 * l, 0.030 * l};
  for (int shell = 0; shell < 2; ++shell) {
    for (int subunit = 0; subunit < 3; ++subunit) {
      const Vec3 dir = random_asym_unit_direction(rng, au);
      const double radius = shell_radii[shell] * rng.uniform(0.95, 1.05);
      model.add_symmetrized(
          Blob{radius * dir, sigmas[shell], shell == 0 ? 1.0 : 0.8}, icos);
    }
  }
  // A weak, smooth genome ball (RNA density is disordered in real
  // alphavirus maps; one broad blob keeps it featureless).
  model.add(Blob{{0, 0, 0}, 0.12 * l, 0.35});
  return model;
}

BlobModel make_reo_like(const PhantomSpec& spec) {
  util::Rng rng(spec.seed + 1);
  const auto icos = SymmetryGroup::icosahedral();
  const IcosahedralAsymmetricUnit au;
  const double l = static_cast<double>(spec.l);
  BlobModel model;
  // Double capsid: sigma-3/mu-1 outer shell and lambda inner shell.
  const double shell_radii[2] = {0.40 * l, 0.27 * l};
  const double sigmas[2] = {0.030 * l, 0.032 * l};
  for (int shell = 0; shell < 2; ++shell) {
    for (int subunit = 0; subunit < 4; ++subunit) {
      const Vec3 dir = random_asym_unit_direction(rng, au);
      const double radius = shell_radii[shell] * rng.uniform(0.96, 1.04);
      model.add_symmetrized(
          Blob{radius * dir, sigmas[shell], shell == 0 ? 1.0 : 0.9}, icos);
    }
  }
  // Lambda-2 turrets on the twelve 5-fold axes: symmetrize one blob on
  // a 5-fold axis (its orbit under I is exactly the 12 axes).
  const Vec3 fivefold = au.fivefold_a();
  model.add_symmetrized(Blob{0.45 * l * fivefold, 0.04 * l, 1.2}, icos);
  // Dense transcriptase-related core.
  model.add(Blob{{0, 0, 0}, 0.10 * l, 0.6});
  return model;
}

BlobModel make_asymmetric(const PhantomSpec& spec, std::size_t blob_count) {
  util::Rng rng(spec.seed + 2);
  const double l = static_cast<double>(spec.l);
  BlobModel model;
  for (std::size_t i = 0; i < blob_count; ++i) {
    // Rejection-sample inside a ball of radius 0.38*l.
    Vec3 p;
    do {
      p = Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    } while (p.norm() > 1.0);
    model.add(Blob{0.38 * l * p, rng.uniform(0.025, 0.05) * l,
                   rng.uniform(0.6, 1.2)});
  }
  return model;
}

BlobModel make_with_symmetry(const PhantomSpec& spec,
                             const SymmetryGroup& group,
                             std::size_t blobs_per_unit) {
  util::Rng rng(spec.seed + 3);
  const double l = static_cast<double>(spec.l);
  BlobModel model;
  for (std::size_t i = 0; i < blobs_per_unit; ++i) {
    Vec3 p;
    do {
      p = Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    } while (p.norm() > 1.0 || p.norm() < 0.3);
    model.add_symmetrized(Blob{0.36 * l * p, rng.uniform(0.03, 0.05) * l,
                               rng.uniform(0.7, 1.1)},
                          group);
  }
  return model;
}

}  // namespace por::em
