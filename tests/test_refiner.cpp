#include <gtest/gtest.h>

#include <cmath>

#include "por/core/refiner.hpp"
#include "por/em/noise.hpp"
#include "por/em/projection.hpp"
#include "por/obs/registry.hpp"
#include "por/simd/isa.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using namespace por::core;
using por::test::small_phantom;

RefinerConfig fast_config() {
  RefinerConfig config;
  config.schedule = {SearchLevel{1.0, 3, 1.0, 3},
                     SearchLevel{0.5, 5, 0.5, 3},
                     SearchLevel{0.1, 5, 0.1, 3}};
  config.match.r_map = 8.0;
  return config;
}

TEST(Refiner, RecoversPerturbedOrientations) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  const OrientationRefiner refiner(model.rasterize(l), fast_config());
  util::Rng rng(3);
  double init_sum = 0.0, refined_sum = 0.0;
  const int trials = 5;
  for (int i = 0; i < trials; ++i) {
    const Orientation truth = por::test::random_orientation(rng);
    const Image<double> view = model.project_analytic(l, truth);
    const Orientation initial{truth.theta + rng.uniform(-2, 2),
                              truth.phi + rng.uniform(-2, 2),
                              truth.omega + rng.uniform(-2, 2)};
    const ViewResult result = refiner.refine_view(view, initial);
    init_sum += geodesic_deg(initial, truth);
    refined_sum += geodesic_deg(result.orientation, truth);
  }
  EXPECT_LT(refined_sum / trials, 0.4 * (init_sum / trials));
  EXPECT_LT(refined_sum / trials, 1.0);
}

TEST(Refiner, RecoversCentersJointly) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  const OrientationRefiner refiner(model.rasterize(l), fast_config());
  util::Rng rng(5);
  for (int i = 0; i < 3; ++i) {
    const Orientation truth = por::test::random_orientation(rng);
    const double cx = rng.uniform(-1.5, 1.5), cy = rng.uniform(-1.5, 1.5);
    const Image<double> view = model.project_analytic(l, truth, cx, cy);
    const Orientation initial{truth.theta + 1.0, truth.phi - 1.0,
                              truth.omega + 1.0};
    const ViewResult result = refiner.refine_view(view, initial);
    EXPECT_NEAR(result.center_x, cx, 0.3) << "trial " << i;
    EXPECT_NEAR(result.center_y, cy, 0.3) << "trial " << i;
  }
}

TEST(Refiner, SurvivesModerateNoise) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  const OrientationRefiner refiner(model.rasterize(l), fast_config());
  util::Rng rng(7);
  const Orientation truth = por::test::random_orientation(rng);
  Image<double> view = model.project_analytic(l, truth);
  add_gaussian_noise(view, 1.0, rng);  // SNR 1: heavy noise
  const Orientation initial{truth.theta + 1.5, truth.phi - 1.0,
                            truth.omega + 1.0};
  const ViewResult result = refiner.refine_view(view, initial);
  EXPECT_LT(geodesic_deg(result.orientation, truth),
            geodesic_deg(initial, truth));
}

TEST(Refiner, EachLevelTightensTheResult) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  util::Rng rng(11);
  const Orientation truth = por::test::random_orientation(rng);
  const Image<double> view = model.project_analytic(l, truth);
  const Orientation initial{truth.theta + 1.8, truth.phi - 1.3,
                            truth.omega + 0.9};

  RefinerConfig one_level = fast_config();
  one_level.schedule = {SearchLevel{1.0, 3, 1.0, 3}};
  RefinerConfig three_levels = fast_config();

  const OrientationRefiner coarse(model.rasterize(l), one_level);
  const OrientationRefiner fine(model.rasterize(l), three_levels);
  const double err_coarse =
      geodesic_deg(coarse.refine_view(view, initial).orientation, truth);
  const double err_fine =
      geodesic_deg(fine.refine_view(view, initial).orientation, truth);
  EXPECT_LT(err_fine, err_coarse + 1e-9);
}

TEST(Refiner, CtfViewsRefineWithCorrection) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  CtfParams ctf;
  ctf.defocus_a = 18000.0;

  RefinerConfig config = fast_config();
  config.ctf = ctf;
  config.ctf_correction = CtfCorrection::kWiener;
  config.wiener_snr = 50.0;
  config.refine_centers = false;
  const OrientationRefiner refiner(model.rasterize(l), config);

  util::Rng rng(13);
  const Orientation truth = por::test::random_orientation(rng);
  Image<cdouble> spec = centered_fft2(model.project_analytic(l, truth));
  apply_ctf(spec, ctf);
  const Image<double> damaged = centered_ifft2(spec);

  const Orientation initial{truth.theta + 1.5, truth.phi + 1.5,
                            truth.omega - 1.5};
  const ViewResult result = refiner.refine_view(damaged, initial);
  EXPECT_LT(geodesic_deg(result.orientation, truth),
            geodesic_deg(initial, truth));
}

TEST(Refiner, BatchMatchesPerViewCalls) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 10);
  RefinerConfig config = fast_config();
  config.schedule = {SearchLevel{1.0, 3, 1.0, 3}};
  const OrientationRefiner refiner(model.rasterize(l), config);
  util::Rng rng(17);
  std::vector<Image<double>> views;
  std::vector<Orientation> initials;
  for (int i = 0; i < 3; ++i) {
    const Orientation truth = por::test::random_orientation(rng);
    views.push_back(model.project_analytic(l, truth));
    initials.push_back(
        {truth.theta + 0.5, truth.phi - 0.5, truth.omega + 0.5});
  }
  const auto batch = refiner.refine(views, initials);
  ASSERT_EQ(batch.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const ViewResult solo = refiner.refine_view(views[i], initials[i]);
    EXPECT_NEAR(geodesic_deg(batch[i].orientation, solo.orientation), 0.0,
                1e-4);
  }
}

TEST(Refiner, RecordsStepSpans) {
  // The refiner resolves its "step.<name>" spans against the registry
  // current at construction.
  obs::MetricsRegistry registry;
  const obs::RegistryScope scope(registry);
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 10);
  const OrientationRefiner refiner(model.rasterize(l), fast_config());
  util::Rng rng(19);
  const Orientation truth = por::test::random_orientation(rng);
  (void)refiner.refine_view(model.project_analytic(l, truth), truth);
  const obs::Snapshot snapshot = registry.snapshot();
  for (const char* step : {"step.Orientation refinement", "step.FFT analysis",
                           "step.Center refinement"}) {
    SCOPED_TRACE(step);
    const auto it = snapshot.spans.find(step);
    ASSERT_NE(it, snapshot.spans.end());
    EXPECT_GT(it->second.count, 0u);
    EXPECT_GT(it->second.total_ns, 0u);
  }
}

TEST(Refiner, MatchingCountReflectsScheduleAndSlides) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 10);
  RefinerConfig config = fast_config();
  config.schedule = {SearchLevel{1.0, 3, 1.0, 3}};
  config.refine_centers = false;
  const OrientationRefiner refiner(model.rasterize(l), config);
  util::Rng rng(23);
  const Orientation truth = por::test::random_orientation(rng);
  const ViewResult result =
      refiner.refine_view(model.project_analytic(l, truth), truth);
  // Starting at the truth: one 27-point window, no slides.
  EXPECT_EQ(result.matchings, 27u);
  EXPECT_EQ(result.window_slides, 0);
}

TEST(Refiner, BelowFloorLevelRefinesTheCenterOnly) {
  // At l = 24, r_map = 8 (padded radius 16 px) a 0.01 deg level is below
  // the resolution floor: appended to a schedule, it must leave the
  // orientation alone and spend no window slides and no cache hits,
  // only center evaluations and the one matching that re-scores the
  // pose it reports.
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  RefinerConfig coarse = fast_config();
  RefinerConfig with_fine = coarse;
  const SearchLevel fine{0.01, 9, 0.01, 3};
  with_fine.schedule.push_back(fine);
  const OrientationRefiner a(model.rasterize(l), coarse);
  const OrientationRefiner b(model.rasterize(l), with_fine);
  ASSERT_FALSE(searches_angles(fine.angular_step_deg,
                               b.matcher().padded_r_map()));

  util::Rng rng(29);
  const Orientation truth = por::test::random_orientation(rng);
  const Image<double> view = model.project_analytic(l, truth, 0.37, -0.21);
  const Orientation start{truth.theta + 1.0, truth.phi - 1.0,
                          truth.omega + 0.5};
  const ViewResult ra = a.refine_view(view, start);
  const ViewResult rb = b.refine_view(view, start);

  EXPECT_EQ(rb.orientation.theta, ra.orientation.theta);
  EXPECT_EQ(rb.orientation.phi, ra.orientation.phi);
  EXPECT_EQ(rb.orientation.omega, ra.orientation.omega);
  EXPECT_EQ(rb.window_slides, ra.window_slides);
  EXPECT_EQ(rb.cache_hits, ra.cache_hits);
  EXPECT_EQ(rb.matchings, ra.matchings + 1);
  EXPECT_GT(rb.center_evals, ra.center_evals);

  // final_distance is the distance of the pose the record reports.
  const FourierMatcher& matcher = b.matcher();
  const Image<cdouble> spectrum = matcher.prepare_view(view);
  Image<cdouble> centered;
  translate_phase_into(centered, spectrum, -rb.center_x, -rb.center_y);
  const double expected = matcher.distance(centered, rb.orientation);
  EXPECT_NEAR(rb.final_distance, expected, 1e-12 * expected);

  // Without center refinement the level only re-scores the pose.
  coarse.refine_centers = false;
  with_fine.refine_centers = false;
  const ViewResult rc =
      OrientationRefiner(model.rasterize(l), coarse).refine_view(view, start);
  const ViewResult rd = OrientationRefiner(model.rasterize(l), with_fine)
                            .refine_view(view, start);
  EXPECT_EQ(rd.orientation.theta, rc.orientation.theta);
  EXPECT_EQ(rd.orientation.phi, rc.orientation.phi);
  EXPECT_EQ(rd.orientation.omega, rc.orientation.omega);
  EXPECT_EQ(rd.final_distance, rc.final_distance);
  EXPECT_EQ(rd.matchings, rc.matchings + 1);
  EXPECT_EQ(rd.center_evals, 0u);
}

TEST(Refiner, ScheduleOfOnlyBelowFloorLevelsStillScoresThePose) {
  // No level searches angles: the record keeps the starting orientation
  // with a finite distance, one matching per level.
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  RefinerConfig config = fast_config();
  config.schedule = {SearchLevel{0.01, 9, 0.01, 3},
                     SearchLevel{0.002, 10, 0.002, 3}};
  const OrientationRefiner refiner(model.rasterize(l), config);
  const Orientation truth{63.0, 141.0, 27.0};
  const ViewResult r =
      refiner.refine_view(model.project_analytic(l, truth, 0.02, 0.0), truth);
  EXPECT_EQ(r.orientation.theta, truth.theta);
  EXPECT_EQ(r.orientation.phi, truth.phi);
  EXPECT_EQ(r.orientation.omega, truth.omega);
  EXPECT_EQ(r.matchings, 2u);
  EXPECT_EQ(r.window_slides, 0);
  EXPECT_GT(r.center_evals, 0u);
  EXPECT_TRUE(std::isfinite(r.final_distance));
  EXPECT_EQ(r.quarantined, 0u);
}

TEST(Refiner, GoldenScheduleSearchesAnglesAtEveryLevel) {
  // The bitwise golden below runs fast_config() at padded radius 16 px,
  // where every level is above the resolution floor: it pins the
  // angular path exactly as it was before the floor existed.
  const BlobModel model = small_phantom(24, 15);
  const OrientationRefiner refiner(model.rasterize(24), fast_config());
  for (const SearchLevel& level : fast_config().schedule) {
    EXPECT_TRUE(searches_angles(level.angular_step_deg,
                                refiner.matcher().padded_r_map()))
        << level.angular_step_deg;
  }
}

TEST(Refiner, RefineViewGoldenWithStartingCenter) {
  // Bitwise golden of one refine_view from a nonzero starting center,
  // recorded before the matcher kept only its spectrum ball and center
  // refinement only its annulus: orientation, center and the work
  // counters must carry exactly the bits of the full-spectrum
  // implementation.  The matchings were re-recorded when the window
  // search became a descent without a score cache (1949 and 1817 with
  // the exhaustive search and its cache); every other value kept its
  // bits.  The distance is summed over the Hermitian half
  // disk with each mirror folded into the weight, so its last bits
  // moved: final_distance is the half-disk golden, and it must stay
  // within 1e-13 relative of the full-disk one.  The SSE2 tier is
  // forced process-wide (FFT plans and matcher kernels) so the values
  // hold on every host; the AVX tiers differ from it by FMA rounding.
  struct Golden {
    double theta, phi, omega, center_x, center_y, final_distance,
        full_disk_distance;
    std::uint64_t matchings, center_evals;
  };
  const Golden goldens[2] = {
      {0x1.f19999999999fp+5, 0x1.1d00000000007p+7, 0x1.b666666666669p+4,
       0x1.9999999999999p-1, -0x1.4ccccccccccccp-1, 0x1.f21038606d5bp+1,
       0x1.f21038606d5b9p+1, 1067, 99},
      {0x1.eb33333333337p+5, 0x1.1d3333333333ap+7, 0x1.b666666666668p+4,
       0x1.9999999999999p-1, -0x1.4ccccccccccccp-1, 0x1.8a0b7666c467ep+4,
       0x1.8a0b7666c467cp+4, 1016, 90},
  };
  const simd::Isa saved = simd::active_isa();
  simd::force_isa(simd::Isa::kSse2);
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  const Orientation truth{63.0, 141.0, 27.0};
  for (const bool with_ctf : {false, true}) {
    SCOPED_TRACE(with_ctf ? "Wiener-corrected CTF" : "no CTF");
    RefinerConfig config = fast_config();
    Image<double> view = model.project_analytic(l, truth, 0.9, -0.7);
    if (with_ctf) {
      config.ctf = CtfParams{};
      config.ctf_correction = CtfCorrection::kWiener;
      Image<cdouble> spectrum = centered_fft2(view);
      apply_ctf(spectrum, *config.ctf);
      view = centered_ifft2(spectrum);
    }
    const OrientationRefiner refiner(model.rasterize(l), config);
    const ViewResult r =
        refiner.refine_view(view, Orientation{64.5, 139.8, 28.1}, 0.5, -0.25);
    const Golden& g = goldens[with_ctf ? 1 : 0];
    EXPECT_EQ(r.orientation.theta, g.theta);
    EXPECT_EQ(r.orientation.phi, g.phi);
    EXPECT_EQ(r.orientation.omega, g.omega);
    EXPECT_EQ(r.center_x, g.center_x);
    EXPECT_EQ(r.center_y, g.center_y);
    EXPECT_EQ(r.final_distance, g.final_distance);
    EXPECT_LE(std::abs(g.final_distance - g.full_disk_distance),
              1e-13 * g.full_disk_distance);
    EXPECT_EQ(r.matchings, g.matchings);
    EXPECT_EQ(r.center_evals, g.center_evals);
  }
  simd::force_isa(saved);
}

TEST(Refiner, EmptyScheduleRejected) {
  const BlobModel model = small_phantom(8, 4);
  RefinerConfig config;
  config.schedule.clear();
  EXPECT_THROW((void)OrientationRefiner(model.rasterize(8), config),
               std::invalid_argument);
}

TEST(Refiner, InputSizeMismatchRejected) {
  const BlobModel model = small_phantom(8, 4);
  RefinerConfig config = fast_config();
  config.schedule = {SearchLevel{1.0, 3, 1.0, 3}};
  const OrientationRefiner refiner(model.rasterize(8), config);
  EXPECT_THROW((void)refiner.refine({Image<double>(8, 8)}, {}),
               std::invalid_argument);
}

}  // namespace
