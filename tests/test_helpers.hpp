// Shared fixtures and generators for the por test suite.
#pragma once

#include <vector>

#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/em/phantom.hpp"
#include "por/simd/isa.hpp"
#include "por/simd/kernels.hpp"
#include "por/util/rng.hpp"

namespace por::test {

/// A small deterministic asymmetric phantom for fast tests.
inline em::BlobModel small_phantom(std::size_t l = 24,
                                   std::size_t blobs = 18,
                                   std::uint64_t seed = 7) {
  em::PhantomSpec spec;
  spec.l = l;
  spec.seed = seed;
  return em::make_asymmetric(spec, blobs);
}

/// The SIMD tiers this machine + binary can actually run.
inline std::vector<simd::Isa> available_tiers() {
  std::vector<simd::Isa> tiers;
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::kernel_table(isa).isa == isa) tiers.push_back(isa);
  }
  return tiers;
}

/// Random orientation with uniformly distributed view axis.
inline em::Orientation random_orientation(util::Rng& rng) {
  double theta, phi;
  rng.sphere_point(theta, phi);
  return em::Orientation{em::rad2deg(theta), em::rad2deg(phi),
                         rng.uniform(0.0, 360.0)};
}

/// Views of a model at random orientations (analytic projections).
struct ViewSet {
  std::vector<em::Image<double>> views;
  std::vector<em::Orientation> orientations;
};

inline ViewSet make_views(const em::BlobModel& model, std::size_t l,
                          std::size_t count, std::uint64_t seed = 31) {
  util::Rng rng(seed);
  ViewSet set;
  set.views.reserve(count);
  set.orientations.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const em::Orientation o = random_orientation(rng);
    set.views.push_back(model.project_analytic(l, o));
    set.orientations.push_back(o);
  }
  return set;
}

/// Max absolute difference between two equal-size rasters.
template <typename Raster>
double max_abs_diff(const Raster& a, const Raster& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a.storage()[i] - b.storage()[i]);
    if (d > worst) worst = d;
  }
  return worst;
}

/// Relative L2 error ||a - b|| / ||b||.
template <typename Raster>
double rel_l2(const Raster& a, const Raster& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(em::cdouble(a.storage()[i]) - em::cdouble(b.storage()[i]));
    den += std::norm(em::cdouble(b.storage()[i]));
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace por::test
