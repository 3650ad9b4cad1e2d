#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "por/core/center_refine.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using namespace por::core;
using por::test::small_phantom;

struct Fixture {
  std::size_t l = 20;
  BlobModel model = small_phantom(20, 12);
  FourierMatcher matcher;
  Orientation truth{60, 30, 100};

  Fixture()
      : matcher(model.rasterize(20), [] {
          MatchOptions o;
          o.r_map = 8.0;
          return o;
        }()) {}
};

TEST(CenterRefine, RecoversKnownShift) {
  Fixture fx;
  const double true_dx = 0.7, true_dy = -1.2;
  const Image<double> view =
      fx.model.project_analytic(fx.l, fx.truth, true_dx, true_dy);
  const auto spectrum = fx.matcher.prepare_view(view);
  const auto cut = fx.matcher.annulus_cut(fx.truth);
  // Two-level center search mirroring the schedule: 1 px then 0.1 px.
  CenterResult coarse =
      refine_center(fx.matcher, spectrum, cut, 0.0, 0.0, 1.0, 3);
  CenterResult fine = refine_center(fx.matcher, spectrum, cut, coarse.dx,
                                    coarse.dy, 0.1, 3);
  EXPECT_NEAR(fine.dx, true_dx, 0.15);
  EXPECT_NEAR(fine.dy, true_dy, 0.15);
}

TEST(CenterRefine, ZeroShiftStaysPut) {
  Fixture fx;
  const Image<double> view = fx.model.project_analytic(fx.l, fx.truth);
  const auto spectrum = fx.matcher.prepare_view(view);
  const auto cut = fx.matcher.annulus_cut(fx.truth);
  const CenterResult result =
      refine_center(fx.matcher, spectrum, cut, 0.0, 0.0, 0.5, 3);
  EXPECT_NEAR(result.dx, 0.0, 0.51);
  EXPECT_NEAR(result.dy, 0.0, 0.51);
  EXPECT_EQ(result.slides, 0);
}

TEST(CenterRefine, SlidesWhenShiftExceedsBox) {
  Fixture fx;
  // A 2.5 px shift cannot be reached by a single 3x3 box of 1 px.
  const Image<double> view =
      fx.model.project_analytic(fx.l, fx.truth, 2.5, 0.0);
  const auto spectrum = fx.matcher.prepare_view(view);
  const auto cut = fx.matcher.annulus_cut(fx.truth);
  const CenterResult result =
      refine_center(fx.matcher, spectrum, cut, 0.0, 0.0, 1.0, 3);
  EXPECT_GE(result.slides, 1);
  EXPECT_NEAR(result.dx, 2.5, 0.6);
}

TEST(CenterRefine, EvaluationCountMatchesBoxGeometry) {
  Fixture fx;
  const Image<double> view = fx.model.project_analytic(fx.l, fx.truth);
  const auto spectrum = fx.matcher.prepare_view(view);
  const auto cut = fx.matcher.annulus_cut(fx.truth);
  const CenterResult result =
      refine_center(fx.matcher, spectrum, cut, 0.0, 0.0, 0.5, 3);
  // n_center = 9 per round (the paper's 3x3 example).
  EXPECT_EQ(result.evaluations, 9u * static_cast<std::uint64_t>(result.slides + 1));
}

TEST(CenterRefine, BetterCenterMeansSmallerDistance) {
  Fixture fx;
  const Image<double> view =
      fx.model.project_analytic(fx.l, fx.truth, 1.0, 1.0);
  const auto spectrum = fx.matcher.prepare_view(view);
  const auto cut = fx.matcher.annulus_cut(fx.truth);
  const CenterResult refined =
      refine_center(fx.matcher, spectrum, cut, 0.0, 0.0, 0.5, 3);
  // Distance at the refined center must beat the uncorrected one: the
  // matching distance of the untranslated view against the same cut.
  const double uncorrected = fx.matcher.distance(spectrum, fx.truth);
  EXPECT_LT(refined.best_distance, uncorrected);
}

/// The center search's original loop: one sincos per annulus pixel per
/// translation, d(translate(F, -dx, -dy), C) over the Hermitian half of
/// the ring with each mirror folded into the weight.  The oracle of
/// CenterScorer.
double translated_distance(const Image<cdouble>& f,
                           const std::vector<cdouble>& c,
                           const AnnulusTable& ring, double dx, double dy) {
  const std::size_t n = f.nx();
  double sum = 0.0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const double angle = 2.0 * std::numbers::pi *
                         (ring.ku[i] * dx + ring.kv[i] * dy) /
                         static_cast<double>(n);
    const cdouble shifted =
        f.data()[ring.index[i]] * cdouble(std::cos(angle), std::sin(angle));
    sum += ring.weight[i] * std::norm(shifted - c[i]);
  }
  return sum / static_cast<double>(n * n);
}

TEST(CenterRefine, SeparableScorerMatchesPerPixelPhaseLoop) {
  Fixture fx;
  for (const bool with_ctf : {false, true}) {
    MatchOptions options;
    options.r_map = 8.0;
    if (with_ctf) options.ctf = CtfParams{};
    const FourierMatcher matcher(fx.model.rasterize(fx.l), options);
    const Image<double> view =
        fx.model.project_analytic(fx.l, fx.truth, 0.7, -1.2);
    const auto spectrum = matcher.prepare_view(view);
    const auto cut = matcher.annulus_cut(Orientation{60.4, 29.7, 100.2});
    const CenterScorer scorer(matcher, spectrum, cut);
    for (const int width : {2, 3, 5}) {
      for (const double step : {1.0, 0.1, 0.01}) {
        const double cx = 0.3, cy = -0.9;
        std::vector<double> box(static_cast<std::size_t>(width * width));
        scorer.box(cx, cy, step, width, box.data());
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_fast = 0, best_oracle = 0;
        for (int iy = 0; iy < width; ++iy) {
          for (int ix = 0; ix < width; ++ix) {
            const double half = static_cast<double>(width - 1) / 2.0;
            const double dx = cx + (static_cast<double>(ix) - half) * step;
            const double dy = cy + (static_cast<double>(iy) - half) * step;
            const double want =
                translated_distance(spectrum, cut, matcher.annulus(), dx, dy);
            const std::size_t k = static_cast<std::size_t>(iy * width + ix);
            EXPECT_NEAR(box[k], want, 1e-12 * want)
                << "ctf " << with_ctf << " width " << width << " step "
                << step << " at (" << dx << ", " << dy << ")";
            if (want < best) {
              best = want;
              best_oracle = k;
            }
            if (box[k] < box[best_fast]) best_fast = k;
          }
        }
        EXPECT_EQ(best_fast, best_oracle);
      }
    }
  }
}

TEST(CenterRefine, RejectsBadBox) {
  Fixture fx;
  const Image<double> view = fx.model.project_analytic(fx.l, fx.truth);
  const auto spectrum = fx.matcher.prepare_view(view);
  const auto cut = fx.matcher.annulus_cut(fx.truth);
  EXPECT_THROW((void)refine_center(fx.matcher, spectrum, cut, 0, 0, 0.0, 3),
               std::invalid_argument);
  EXPECT_THROW((void)refine_center(fx.matcher, spectrum, cut, 0, 0, 1.0, 1),
               std::invalid_argument);
  // A cut that is not in annulus order (wrong length) is refused.
  const std::vector<cdouble> short_cut(cut.begin(), cut.end() - 1);
  EXPECT_THROW(
      (void)refine_center(fx.matcher, spectrum, short_cut, 0, 0, 1.0, 3),
      std::invalid_argument);
}

}  // namespace
