#include <gtest/gtest.h>

#include <cmath>

#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/em/rotate.hpp"
#include "por/metrics/fsc.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por::em;
using por::test::rel_l2;

TEST(BlobModel, AddAndSize) {
  BlobModel model;
  model.add(Blob{{1, 2, 3}, 1.0, 1.0});
  EXPECT_EQ(model.size(), 1u);
  model.add_symmetrized(Blob{{4, 0, 0}, 1.0, 1.0}, SymmetryGroup::cyclic(5));
  EXPECT_EQ(model.size(), 6u);
}

TEST(BlobModel, RasterizeConservesMass) {
  // A blob well inside the box integrates to amplitude*(2 pi)^1.5 sigma^3.
  BlobModel model;
  const double sigma = 1.5, amplitude = 2.0;
  model.add(Blob{{0, 0, 0}, sigma, amplitude});
  const Volume<double> vol = model.rasterize(24);
  double mass = 0.0;
  for (double v : vol.storage()) mass += v;
  const double expected =
      amplitude * std::pow(2.0 * M_PI, 1.5) * sigma * sigma * sigma;
  EXPECT_NEAR(mass, expected, 0.01 * expected);
}

TEST(BlobModel, RasterizePeaksAtBlobCenter) {
  BlobModel model;
  model.add(Blob{{2, -3, 1}, 1.0, 1.0});
  const Volume<double> vol = model.rasterize(16);
  const std::size_t c = 8;
  EXPECT_NEAR(vol(c + 1, c - 3, c + 2), 1.0, 1e-6);  // (z,y,x) order
}

TEST(BlobModel, AnalyticProjectionMatchesNumericProjection) {
  const BlobModel model = por::test::small_phantom(24, 12);
  const Volume<double> vol = model.rasterize(24);
  for (const Orientation o :
       {Orientation{0, 0, 0}, Orientation{65, 120, 33}}) {
    const Image<double> analytic = model.project_analytic(24, o);
    const Image<double> numeric = project_volume(vol, o, 2);
    EXPECT_LT(rel_l2(numeric, analytic), 0.12) << "orientation theta=" << o.theta;
  }
}

TEST(BlobModel, ProjectionMassMatchesVolumeMass) {
  // Integral of any projection equals the integral of the density.
  const BlobModel model = por::test::small_phantom(24, 10);
  const Volume<double> vol = model.rasterize(24);
  double vol_mass = 0.0;
  for (double v : vol.storage()) vol_mass += v;
  const Image<double> proj = model.project_analytic(24, {40, 80, 10});
  double proj_mass = 0.0;
  for (double v : proj.storage()) proj_mass += v;
  EXPECT_NEAR(proj_mass, vol_mass, 0.02 * vol_mass);
}

TEST(BlobModel, ProjectionShiftMovesImage) {
  BlobModel model;
  model.add(Blob{{0, 0, 0}, 1.2, 1.0});
  const Image<double> centered = model.project_analytic(16, {0, 0, 0});
  const Image<double> shifted = model.project_analytic(16, {0, 0, 0}, 3.0, -2.0);
  // Peak moves from (8,8) to (8-2, 8+3).
  EXPECT_NEAR(shifted(6, 11), centered(8, 8), 1e-9);
}

TEST(BlobModel, RotatedModelMatchesRotatedProjection) {
  // Rotating the model by R^T and projecting at identity equals
  // projecting the original with orientation R:
  //   P_{rho o R, id}(u,v) = integral rho(R (u,v,w)) dw = P_{rho, R}(u,v).
  const BlobModel model = por::test::small_phantom(24, 8);
  const Orientation o{50, 200, 35};
  const BlobModel rotated = model.rotated(rotation_matrix(o).transposed());
  const Image<double> a = rotated.project_analytic(24, {0, 0, 0});
  const Image<double> b = model.project_analytic(24, o);
  EXPECT_LT(rel_l2(a, b), 1e-9);
}

// ---- stock phantoms ----------------------------------------------------------

TEST(StockPhantoms, SindbisIsIcosahedral) {
  PhantomSpec spec;
  spec.l = 24;
  const BlobModel model = make_sindbis_like(spec);
  const Volume<double> map = model.rasterize(24);
  const auto icos = SymmetryGroup::icosahedral();
  // The rasterized map must be invariant (up to resampling error)
  // under every icosahedral rotation.
  int checked = 0;
  for (const auto& op : icos.operations()) {
    if (++checked > 6) break;  // a few suffice; rotation is O(l^3)
    const Volume<double> rotated = rotate_volume(map, op);
    EXPECT_GT(por::metrics::volume_correlation(map, rotated), 0.95);
  }
}

TEST(StockPhantoms, ReoHasDenserShellThanSindbis) {
  PhantomSpec spec;
  spec.l = 24;
  EXPECT_GT(make_reo_like(spec).size(), make_sindbis_like(spec).size());
}

TEST(StockPhantoms, AsymmetricIsNotSymmetric) {
  PhantomSpec spec;
  spec.l = 24;
  const BlobModel model = make_asymmetric(spec, 20);
  const Volume<double> map = model.rasterize(24);
  const auto icos = SymmetryGroup::icosahedral();
  // Any non-identity rotation should decorrelate the map noticeably.
  const Volume<double> rotated = rotate_volume(map, icos.operations()[1]);
  EXPECT_LT(por::metrics::volume_correlation(map, rotated), 0.8);
}

TEST(StockPhantoms, WithSymmetryRespectsRequestedGroup) {
  PhantomSpec spec;
  spec.l = 24;
  const auto d3 = SymmetryGroup::dihedral(3);
  const BlobModel model = make_with_symmetry(spec, d3, 3);
  EXPECT_EQ(model.size(), 3u * d3.order());
  const Volume<double> map = model.rasterize(24);
  for (const auto& op : d3.operations()) {
    EXPECT_GT(por::metrics::volume_correlation(map, rotate_volume(map, op)),
              0.95);
  }
}

TEST(StockPhantoms, DeterministicForEqualSeeds) {
  PhantomSpec spec;
  spec.l = 32;
  spec.seed = 77;
  const BlobModel a = make_sindbis_like(spec);
  const BlobModel b = make_sindbis_like(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.blobs()[i].center.x, b.blobs()[i].center.x);
    EXPECT_DOUBLE_EQ(a.blobs()[i].sigma, b.blobs()[i].sigma);
  }
}

}  // namespace
