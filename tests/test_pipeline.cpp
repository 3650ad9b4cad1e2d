#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "por/core/pipeline.hpp"
#include "por/em/noise.hpp"
#include "por/stream/view_source.hpp"
#include "por/vmpi/runtime.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using namespace por::core;
using por::test::small_phantom;

PipelineConfig fast_pipeline() {
  PipelineConfig config;
  config.cycles = 2;
  config.refiner.schedule = {SearchLevel{1.0, 3, 1.0, 3},
                             SearchLevel{0.25, 5, 0.25, 3}};
  config.refiner.refine_centers = false;
  config.initial_r_map = 6.0;
  return config;
}

/// Step C (map and odd/even FSC) over `views` at `orientations`, on one
/// rank.
Reconstruction reconstruct_at(const std::vector<Image<double>>& views,
                              const std::vector<Orientation>& orientations,
                              const recon::ReconOptions& options) {
  std::vector<ViewResult> poses(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    poses[i].orientation = orientations[i];
  }
  Reconstruction out;
  vmpi::run(1, [&](vmpi::Comm& comm) {
    stream::MemoryViewSource source(views);
    out = reconstruct_refined(comm, views.front().nx(), &source, poses,
                              RefinerConfig{}, options);
  });
  return out;
}

struct PipelineWorkload {
  std::size_t l = 20;
  BlobModel model = small_phantom(20, 14);
  std::vector<Image<double>> views;
  std::vector<Orientation> truths;
  std::vector<Orientation> initials;

  explicit PipelineWorkload(int m = 24, double perturb = 2.0,
                            double snr = 0.0) {
    util::Rng rng(61);
    for (int i = 0; i < m; ++i) {
      const Orientation truth = por::test::random_orientation(rng);
      Image<double> view = model.project_analytic(l, truth);
      if (snr > 0.0) add_gaussian_noise(view, snr, rng);
      views.push_back(std::move(view));
      truths.push_back(truth);
      initials.push_back({truth.theta + rng.uniform(-perturb, perturb),
                          truth.phi + rng.uniform(-perturb, perturb),
                          truth.omega + rng.uniform(-perturb, perturb)});
    }
  }
};

TEST(Pipeline, ProducesCycleReports) {
  PipelineWorkload w;
  const RefinementPipeline pipeline(fast_pipeline());
  GroundTruth truth;
  truth.orientations = w.truths;
  const PipelineResult result =
      pipeline.run(w.views, w.initials, std::nullopt, truth);
  ASSERT_EQ(result.cycles.size(), 2u);
  for (const auto& cycle : result.cycles) {
    EXPECT_GT(cycle.fsc_radius, 0.0);
    EXPECT_GT(cycle.resolution_a, 0.0);
    EXPECT_GT(cycle.matchings, 0u);
    EXPECT_GT(cycle.orientation_error.count, 0u);
  }
  EXPECT_EQ(result.orientations.size(), w.views.size());
  EXPECT_EQ(result.map.nx(), w.l);
}

TEST(Pipeline, ImprovesOrientationsOverInitialGuess) {
  PipelineWorkload w(24, 2.5);
  const RefinementPipeline pipeline(fast_pipeline());
  GroundTruth truth;
  truth.orientations = w.truths;
  const PipelineResult result =
      pipeline.run(w.views, w.initials, std::nullopt, truth);
  const auto init_stats =
      metrics::orientation_error_stats(w.initials, w.truths, truth.symmetry);
  const auto final_error = result.cycles.back().orientation_error;
  EXPECT_LT(final_error.mean, init_stats.mean);
}

TEST(Pipeline, FinalFscBeatsInitialMapFsc) {
  PipelineWorkload w(24, 3.0);
  const PipelineConfig config = fast_pipeline();
  const RefinementPipeline pipeline(config);

  // FSC of the half-maps built from the INITIAL (perturbed)
  // orientations.
  const double initial_crossing =
      reconstruct_at(w.views, w.initials, config.recon).fsc05_px;

  const PipelineResult result = pipeline.run(w.views, w.initials);
  EXPECT_GE(result.cycles.back().fsc_radius, initial_crossing);
}

TEST(Pipeline, AcceptsExternalInitialMap) {
  PipelineWorkload w(16, 1.0);
  const RefinementPipeline pipeline(fast_pipeline());
  const Volume<double> truth_map = w.model.rasterize(w.l);
  const PipelineResult result = pipeline.run(w.views, w.initials, truth_map);
  ASSERT_EQ(result.cycles.size(), 2u);
  // Against the true map the first cycle already refines well.
  GroundTruth truth;
  truth.orientations = w.truths;
  const auto errors = metrics::orientation_error_stats(
      result.orientations, w.truths, truth.symmetry);
  EXPECT_LT(errors.mean, 1.0);
}

TEST(Pipeline, TracksCenterErrorWhenTruthGiven) {
  PipelineWorkload w(12, 1.0);
  PipelineConfig config = fast_pipeline();
  config.refiner.refine_centers = true;
  const RefinementPipeline pipeline(config);
  GroundTruth truth;
  truth.orientations = w.truths;
  truth.centers.assign(w.views.size(), {0.0, 0.0});
  const PipelineResult result =
      pipeline.run(w.views, w.initials, std::nullopt, truth);
  // True centers are zero; the refiner should stay near them.
  EXPECT_LT(result.cycles.back().mean_center_error_px, 0.75);
}

TEST(Pipeline, RejectsBadConfig) {
  PipelineConfig config = fast_pipeline();
  config.cycles = 0;
  EXPECT_THROW((void)RefinementPipeline(config), std::invalid_argument);
  config = fast_pipeline();
  config.r_map_growth = 0.5;
  EXPECT_THROW((void)RefinementPipeline(config), std::invalid_argument);
}

TEST(Pipeline, RejectsBadInputs) {
  const RefinementPipeline pipeline(fast_pipeline());
  EXPECT_THROW((void)pipeline.run({}, {}), std::invalid_argument);
}

TEST(Pipeline, QuarantinedViewStaysOutOfTheMap) {
  // One NaN pixel in one of 16 views: step B quarantines that view in
  // every cycle (and cycle 0 leaves it out of the starting map), so
  // each map is the map of the other 15 views and the FSC stays finite.
  PipelineWorkload w(16, 1.0);
  constexpr std::size_t kBad = 5;
  w.views[kBad](3, 4) = std::numeric_limits<double>::quiet_NaN();
  const PipelineConfig config = fast_pipeline();
  const PipelineResult result =
      RefinementPipeline(config).run(w.views, w.initials);

  ASSERT_EQ(result.cycles.size(), 2u);
  for (const CycleReport& cycle : result.cycles) {
    EXPECT_TRUE(std::isfinite(cycle.fsc_radius));
    EXPECT_GT(cycle.fsc_radius, 0.0);
  }
  for (const double v : result.map.storage()) ASSERT_TRUE(std::isfinite(v));
  // Quarantined records keep the initial pose.
  EXPECT_EQ(result.orientations[kBad].theta, w.initials[kBad].theta);
  EXPECT_EQ(result.orientations[kBad].omega, w.initials[kBad].omega);

  std::vector<Image<double>> kept;
  std::vector<Orientation> orientations;
  std::vector<std::pair<double, double>> centers;
  for (std::size_t i = 0; i < w.views.size(); ++i) {
    if (i == kBad) continue;
    kept.push_back(w.views[i]);
    orientations.push_back(result.orientations[i]);
    centers.push_back(result.centers[i]);
  }
  const Volume<double> reference =
      recon::fourier_reconstruct(kept, orientations, centers, config.recon);
  double peak = 0.0;
  for (const double v : reference.storage()) peak = std::max(peak, std::abs(v));
  EXPECT_LT(por::test::max_abs_diff(result.map, reference), 1e-12 * peak);
}

TEST(OddEvenFsc, SplitsViewsInHalf) {
  PipelineWorkload w(20, 0.0);
  const metrics::FscCurve curve =
      reconstruct_at(w.views, w.truths, recon::ReconOptions{}).fsc;
  ASSERT_FALSE(curve.correlation.empty());
  // With exact orientations both halves reconstruct the same particle:
  // correlation near 1 at low shells.
  EXPECT_GT(curve.correlation[1], 0.9);
  EXPECT_GT(curve.correlation[2], 0.9);
}

}  // namespace
