#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "por/em/pad.hpp"
#include "por/em/projection.hpp"
#include "por/io/master_io.hpp"
#include "por/metrics/fsc.hpp"
#include "por/recon/fourier_recon.hpp"
#include "por/recon/parallel_recon.hpp"
#include "por/vmpi/runtime.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using por::test::make_views;
using por::test::small_phantom;

TEST(FourierRecon, RecoversPhantomFromManyViews) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  const Volume<double> truth = model.rasterize(l);
  const auto set = make_views(model, l, 50, 3);
  const Volume<double> map =
      recon::fourier_reconstruct(set.views, set.orientations);
  EXPECT_GT(metrics::volume_correlation(map, truth), 0.97);
}

TEST(FourierRecon, BeatsBackprojectionFloorOnSparseSet) {
  // A small, sparse set: l = 16 from 30 views.  The floor is what
  // ramp-filtered real-space backprojection reached on this set
  // (0.8369); the paper's Fourier method must stay above it.
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const Volume<double> truth = model.rasterize(l);
  const auto set = make_views(model, l, 30, 13);
  EXPECT_GT(metrics::volume_correlation(
                recon::fourier_reconstruct(set.views, set.orientations),
                truth),
            0.837);
}

TEST(FourierRecon, AmplitudeScaleIsUnity) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 10);
  const Volume<double> truth = model.rasterize(l);
  const auto set = make_views(model, l, 40, 4);
  const Volume<double> map =
      recon::fourier_reconstruct(set.views, set.orientations);
  double map_mass = 0.0, truth_mass = 0.0;
  for (double v : map.storage()) map_mass += v;
  for (double v : truth.storage()) truth_mass += v;
  EXPECT_NEAR(map_mass / truth_mass, 1.0, 0.08);
}

TEST(FourierRecon, MoreViewsImproveMap) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> truth = model.rasterize(l);
  const auto few = make_views(model, l, 6, 5);
  const auto many = make_views(model, l, 48, 5);
  const double cc_few = metrics::volume_correlation(
      recon::fourier_reconstruct(few.views, few.orientations), truth);
  const double cc_many = metrics::volume_correlation(
      recon::fourier_reconstruct(many.views, many.orientations), truth);
  EXPECT_GT(cc_many, cc_few);
}

TEST(FourierRecon, WrongOrientationsDegradeMap) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> truth = model.rasterize(l);
  auto set = make_views(model, l, 30, 6);
  const double cc_right = metrics::volume_correlation(
      recon::fourier_reconstruct(set.views, set.orientations), truth);
  util::Rng rng(8);
  for (auto& o : set.orientations) {
    o.theta += rng.uniform(-10, 10);
    o.phi += rng.uniform(-10, 10);
    o.omega += rng.uniform(-10, 10);
  }
  const double cc_wrong = metrics::volume_correlation(
      recon::fourier_reconstruct(set.views, set.orientations), truth);
  EXPECT_GT(cc_right, cc_wrong + 0.05);
}

TEST(FourierRecon, CentersAreCompensated) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> truth = model.rasterize(l);
  util::Rng rng(9);
  std::vector<Image<double>> views;
  std::vector<Orientation> orientations;
  std::vector<std::pair<double, double>> centers;
  for (int i = 0; i < 40; ++i) {
    const Orientation o = por::test::random_orientation(rng);
    const double cx = rng.uniform(-1.5, 1.5), cy = rng.uniform(-1.5, 1.5);
    views.push_back(model.project_analytic(l, o, cx, cy));
    orientations.push_back(o);
    centers.emplace_back(cx, cy);
  }
  const double cc_with = metrics::volume_correlation(
      recon::fourier_reconstruct(views, orientations, centers), truth);
  const double cc_without = metrics::volume_correlation(
      recon::fourier_reconstruct(views, orientations), truth);
  EXPECT_GT(cc_with, cc_without + 0.02);
  EXPECT_GT(cc_with, 0.95);
}

TEST(FourierRecon, RejectsBadInputs) {
  EXPECT_THROW((void)recon::fourier_reconstruct({}, {}),
               std::invalid_argument);
  const BlobModel model = small_phantom(8, 4);
  const auto set = make_views(model, 8, 2, 1);
  EXPECT_THROW(
      (void)recon::fourier_reconstruct(set.views, {set.orientations[0]}),
      std::invalid_argument);
}

// ---- half grid vs the full-grid reference ----------------------------------

// The full-grid accumulator as it was before the Hermitian half grid,
// kept verbatim (constructor, insert, insert_spectrum, finish) as the
// reference the half grid is held to.
struct FullGridReference {
  FullGridReference(std::size_t edge, const recon::ReconOptions& opts)
      : l(edge), options(opts) {
    const std::size_t big = l * options.pad;
    values = Volume<cdouble>(big, cdouble{0.0, 0.0});
    weights = Volume<double>(big, 0.0);
    if (options.r_max <= 0.0) {
      options.r_max = static_cast<double>(big) / 2.0 - 1.0;
    }
  }

  void insert(const Image<double>& view, const Orientation& o,
              double center_x, double center_y) {
    Image<cdouble> spectrum = centered_fft2(pad_image(view, options.pad));
    if (center_x != 0.0 || center_y != 0.0) {
      apply_translation_phase(spectrum, -center_x, -center_y);
    }
    insert_spectrum(spectrum, o);
  }

  void insert_spectrum(const Image<cdouble>& spectrum, const Orientation& o) {
    const std::size_t big = values.nx();
    const Mat3 r = rotation_matrix(o);
    const Vec3 eu = r * Vec3{1, 0, 0};
    const Vec3 ev = r * Vec3{0, 1, 0};
    const double c = std::floor(static_cast<double>(big) / 2.0);
    const long nbig = static_cast<long>(big);

    for (std::size_t y = 0; y < big; ++y) {
      const double kv = static_cast<double>(y) - c;
      for (std::size_t x = 0; x < big; ++x) {
        const double ku = static_cast<double>(x) - c;
        if (std::sqrt(ku * ku + kv * kv) > options.r_max) continue;
        const cdouble sample = spectrum(y, x);
        const Vec3 q = ku * eu + kv * ev;
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
              if (w == 0.0) continue;
              values(static_cast<std::size_t>(zz), static_cast<std::size_t>(yy),
                     static_cast<std::size_t>(xx)) += w * sample;
              weights(static_cast<std::size_t>(zz),
                      static_cast<std::size_t>(yy),
                      static_cast<std::size_t>(xx)) += w;
            }
          }
        }
      }
    }
  }

  Volume<double> finish() const {
    const std::size_t big = values.nx();
    Volume<cdouble> normalized(big, cdouble{0.0, 0.0});
    for (std::size_t i = 0; i < normalized.size(); ++i) {
      const double w = weights.storage()[i];
      if (w >= options.weight_floor) {
        normalized.storage()[i] = values.storage()[i] / w;
      }
    }
    const Volume<double> padded = centered_ifft3(normalized);
    return crop_volume(padded, l);
  }

  std::size_t l;
  recon::ReconOptions options;
  Volume<cdouble> values;
  Volume<double> weights;
};

/// Noise views (every frequency populated) at random orientations and
/// random nonzero centers.
struct NoiseViews {
  std::vector<Image<double>> views;
  std::vector<Orientation> orientations;
  std::vector<std::pair<double, double>> centers;
};

NoiseViews noise_views(std::size_t l, std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  NoiseViews set;
  for (std::size_t i = 0; i < count; ++i) {
    Image<double> view(l, l);
    for (double& v : view.storage()) v = rng.gaussian();
    set.views.push_back(std::move(view));
    set.orientations.push_back(por::test::random_orientation(rng));
    set.centers.emplace_back(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
  }
  return set;
}

/// max |a - b| / max |b|.
double relative_diff(const Volume<double>& a, const Volume<double>& b) {
  double peak = 0.0;
  for (double v : b.storage()) peak = std::max(peak, std::abs(v));
  return por::test::max_abs_diff(a, b) / peak;
}

struct EdgeAndPad {
  std::size_t l;
  std::size_t pad;
};

class HalfGridShapes : public ::testing::TestWithParam<EdgeAndPad> {};

TEST_P(HalfGridShapes, MatchesFullGridReference) {
  const auto [l, pad] = GetParam();
  const NoiseViews set = noise_views(l, 60, 40 + l + pad);
  recon::ReconOptions options;
  options.pad = pad;
  FullGridReference reference(l, options);
  for (std::size_t i = 0; i < set.views.size(); ++i) {
    reference.insert(set.views[i], set.orientations[i], set.centers[i].first,
                     set.centers[i].second);
  }
  const Volume<double> expected = reference.finish();
  const Volume<double> map = recon::fourier_reconstruct(
      set.views, set.orientations, set.centers, options);
  ASSERT_EQ(map.nx(), l);
  EXPECT_LT(relative_diff(map, expected), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Edges, HalfGridShapes,
                         ::testing::Values(EdgeAndPad{16, 2}, EdgeAndPad{17, 1},
                                           EdgeAndPad{32, 1}));

TEST(Accumulator, StoresTheHalfGrid) {
  recon::ReconOptions options;
  options.pad = 2;
  const recon::FourierAccumulator even(8, options);
  EXPECT_EQ(even.cells.nz(), 16u);
  EXPECT_EQ(even.cells.ny(), 16u);
  EXPECT_EQ(even.cells.nx(), 9u);
  options.pad = 1;
  const recon::FourierAccumulator odd(7, options);
  EXPECT_EQ(odd.cells.nx(), 4u);
}

class ParallelReconRanks : public ::testing::TestWithParam<int> {};

/// Run parallel_fourier_reconstruct on p ranks, views dealt round-robin.
std::vector<Volume<double>> reconstruct_on_ranks(
    int p, std::size_t l, const NoiseViews& set,
    const recon::ReconOptions& options) {
  std::vector<Volume<double>> per_rank(static_cast<std::size_t>(p));
  vmpi::run(p, [&](vmpi::Comm& comm) {
    std::vector<Image<double>> mine;
    std::vector<Orientation> mine_o;
    std::vector<std::pair<double, double>> mine_c;
    for (std::size_t i = 0; i < set.views.size(); ++i) {
      if (static_cast<int>(i) % p == comm.rank()) {
        mine.push_back(set.views[i]);
        mine_o.push_back(set.orientations[i]);
        mine_c.push_back(set.centers[i]);
      }
    }
    per_rank[static_cast<std::size_t>(comm.rank())] =
        recon::parallel_fourier_reconstruct(comm, l, mine, mine_o, mine_c,
                                            options);
  });
  return per_rank;
}

TEST_P(ParallelReconRanks, MatchesSerialReconstruction) {
  const int p = GetParam();
  const std::size_t l = 16;
  const NoiseViews set = noise_views(l, 12, 14);
  const recon::ReconOptions options;  // pad 2: 32 planes, uneven at 3 ranks
  const Volume<double> serial = recon::fourier_reconstruct(
      set.views, set.orientations, set.centers, options);
  const std::vector<Volume<double>> per_rank =
      reconstruct_on_ranks(p, l, set, options);
  EXPECT_LT(relative_diff(per_rank[0], serial), 1e-12);
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)].storage(),
              per_rank[0].storage())
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelReconRanks,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelRecon, MoreRanksThanPlanes) {
  // l = 6, pad 1: 6 z-planes and 6 map rows over 8 ranks, so ranks 6
  // and 7 own no slab at all and still take part in every exchange.
  const std::size_t l = 6;
  const NoiseViews set = noise_views(l, 10, 16);
  recon::ReconOptions options;
  options.pad = 1;
  const Volume<double> serial = recon::fourier_reconstruct(
      set.views, set.orientations, set.centers, options);
  const std::vector<Volume<double>> per_rank =
      reconstruct_on_ranks(8, l, set, options);
  EXPECT_LT(relative_diff(per_rank[0], serial), 1e-12);
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    EXPECT_EQ(per_rank[r].storage(), per_rank[0].storage()) << "rank " << r;
  }
}

TEST(ParallelRecon, RankWithNoViewsParticipates) {
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const auto set = make_views(model, l, 2, 15);
  // 3 ranks, 2 views: one rank contributes nothing but must still join
  // the reduction.
  std::vector<Volume<double>> maps(3);
  vmpi::run(3, [&](vmpi::Comm& comm) {
    std::vector<Image<double>> mine;
    std::vector<Orientation> mine_o;
    if (comm.rank() < 2) {
      mine.push_back(set.views[comm.rank()]);
      mine_o.push_back(set.orientations[comm.rank()]);
    }
    maps[comm.rank()] = recon::parallel_fourier_reconstruct(comm, l, mine, mine_o);
  });
  EXPECT_LT(por::test::max_abs_diff(maps[0], maps[2]), 1e-12);
}

TEST(ParallelRecon, ReduceScatterSendsTheHalfGridOnce) {
  // One call moves: the agreement on the input check (a 4-byte reduce
  // and broadcast), the reduce-scatter (every rank sends each peer that
  // peer's z-planes of its half grid, 24 B per cell), the slab exchange
  // (each rank's z-planes of each peer's cropped y rows, 16 B per
  // cell), and the ring all-gather of the real l^3 map.
  const std::size_t l = 12;
  const NoiseViews set = noise_views(l, 8, 17);
  recon::ReconOptions options;
  options.pad = 2;
  const std::size_t n = l * options.pad, hx = n / 2 + 1;
  for (const int p : {2, 3, 4}) {
    const std::uint64_t bytes =
        vmpi::run(p, [&](vmpi::Comm& comm) {
          std::vector<Image<double>> mine;
          std::vector<Orientation> mine_o;
          for (std::size_t i = 0; i < set.views.size(); ++i) {
            if (static_cast<int>(i) % p == comm.rank()) {
              mine.push_back(set.views[i]);
              mine_o.push_back(set.orientations[i]);
            }
          }
          (void)recon::parallel_fourier_reconstruct(comm, l, mine, mine_o, {},
                                                    options);
        }).bytes;
    const std::uint64_t q = static_cast<std::uint64_t>(p - 1);
    std::uint64_t own_rows = 0;  // z-plane x y-row pairs a rank keeps
    for (int r = 0; r < p; ++r) {
      own_rows += io::block_share(n, p, r) * io::block_share(l, p, r);
    }
    const std::uint64_t agree = 2 * q * sizeof(int);
    const std::uint64_t reduce_scatter = q * n * n * hx * 24;
    const std::uint64_t exchange = (n * l - own_rows) * hx * 16;
    const std::uint64_t map_gather = q * l * l * l * sizeof(double);
    EXPECT_EQ(bytes, agree + reduce_scatter + exchange + map_gather)
        << p << " ranks";
    // The full-grid allreduce (a reduce to rank 0 plus a broadcast of
    // values and weights) sent 2(P-1) n^3 * 24 B by itself.
    EXPECT_LT(bytes, 2 * q * n * n * n * 24) << p << " ranks";
  }
}

TEST(ParallelRecon, BadInputOnOneRankThrowsOnEveryRank) {
  // Rank 1 alone passes a bad input.  Every rank must throw
  // std::invalid_argument; a rank left waiting in a collective would hit
  // the deadline and throw CommTimeout instead.
  const std::size_t l = 8;
  const NoiseViews set = noise_views(l, 3, 18);
  recon::ReconOptions options;
  options.pad = 1;
  enum class Bad { kShortCenters, kWrongEdge };
  for (const Bad bad : {Bad::kShortCenters, Bad::kWrongEdge}) {
    std::vector<int> threw(3, 0);
    vmpi::run(3, [&](vmpi::Comm& comm) {
      comm.set_deadline(std::chrono::milliseconds(500));
      const auto rank = static_cast<std::size_t>(comm.rank());
      std::vector<Image<double>> mine{set.views[rank]};
      std::vector<Orientation> mine_o{set.orientations[rank]};
      std::vector<std::pair<double, double>> mine_c{set.centers[rank]};
      if (rank == 1) {
        if (bad == Bad::kShortCenters) {
          mine.push_back(set.views[0]);
          mine_o.push_back(set.orientations[0]);
        } else {
          mine[0] = Image<double>(l + 1, l + 1);
        }
      }
      try {
        (void)recon::parallel_fourier_reconstruct(comm, l, mine, mine_o, mine_c,
                                                  options);
      } catch (const std::invalid_argument&) {
        threw[rank] = 1;
      }
    });
    EXPECT_EQ(threw, std::vector<int>({1, 1, 1}))
        << (bad == Bad::kShortCenters ? "short centers" : "wrong edge");
  }
}

}  // namespace
