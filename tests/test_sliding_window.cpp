#include <gtest/gtest.h>

#include "por/core/sliding_window.hpp"
#include "por/em/projection.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using namespace por::core;
using por::test::small_phantom;

struct Fixture {
  std::size_t l = 20;
  BlobModel model = small_phantom(20, 12);
  MatchOptions options;
  FourierMatcher matcher;

  Fixture()
      : options([] {
          MatchOptions o;
          o.r_map = 8.0;
          return o;
        }()),
        matcher(model.rasterize(20), options) {}
};

TEST(SlidingWindow, FindsMinimumInsideDomainWithoutSliding) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  // Domain centered exactly on the truth: the best grid point is the
  // center, no slide needed, and the descent stops after scoring the
  // center's 3 x 3 x 3 neighbourhood instead of all 125 candidates.
  const SearchDomain domain{truth, 1.0, 5};
  const WindowResult result =
      sliding_window_search(fx.matcher, spectrum, domain);
  EXPECT_EQ(result.slides, 0);
  EXPECT_EQ(result.matchings, 27u);
  EXPECT_NEAR(geodesic_deg(result.best, truth), 0.0, 1e-4);
}

TEST(SlidingWindow, SlidesWhenTruthIsOutsideInitialDomain) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  // Start 3 degrees off in theta with a +-1 degree window: the minimum
  // lands on the edge and the window must slide toward the truth.
  const SearchDomain domain{Orientation{53, 120, 40}, 1.0, 3};
  const WindowResult result =
      sliding_window_search(fx.matcher, spectrum, domain);
  EXPECT_GE(result.slides, 1);
  EXPECT_LT(geodesic_deg(result.best, truth), 1.5);
  // Sliding costs extra matchings (27 per round).
  EXPECT_GT(result.matchings, 27u);
}

TEST(SlidingWindow, MaxSlidesBoundsTheSearch) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  // Start very far away and allow at most one slide.
  const SearchDomain domain{Orientation{80, 120, 40}, 1.0, 3};
  const WindowResult result =
      sliding_window_search(fx.matcher, spectrum, domain, /*max_slides=*/1);
  EXPECT_LE(result.slides, 1);
  EXPECT_LE(result.matchings, 2u * 27u);
}

TEST(SlidingWindow, ReportsBestDistanceConsistently) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  const SearchDomain domain{truth, 0.5, 3};
  const WindowResult result =
      sliding_window_search(fx.matcher, spectrum, domain);
  EXPECT_NEAR(result.best_distance,
              fx.matcher.distance(spectrum, result.best), 1e-15);
}

TEST(SlidingWindow, FinerGridFindsLowerMinimum) {
  Fixture fx;
  const Orientation truth{50.3, 120.2, 40.1};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  const SearchDomain coarse{Orientation{50, 120, 40}, 1.0, 3};
  const SearchDomain fine{Orientation{50, 120, 40}, 0.1, 7};
  const double coarse_best =
      sliding_window_search(fx.matcher, spectrum, coarse).best_distance;
  const double fine_best =
      sliding_window_search(fx.matcher, spectrum, fine).best_distance;
  EXPECT_LT(fine_best, coarse_best);
}

TEST(SlidingWindow, RepeatedSearchIsBitwiseIdentical) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  // Off-center so the window slides; the second search reuses the
  // thread's warm scratch and must not see anything of the first.
  const SearchDomain domain{Orientation{53, 120, 40}, 1.0, 3};
  const WindowResult first =
      sliding_window_search(fx.matcher, spectrum, domain);
  const WindowResult second =
      sliding_window_search(fx.matcher, spectrum, domain);
  ASSERT_GE(first.slides, 1);
  EXPECT_EQ(second.best, first.best);
  EXPECT_EQ(second.best_distance, first.best_distance);
  EXPECT_EQ(second.slides, first.slides);
  EXPECT_EQ(second.matchings, first.matchings);
}

TEST(SlidingWindow, DescentScoresFewerThanTheWholeGrid) {
  Fixture fx;
  const Orientation truth{50.3, 120.2, 40.1};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  // A 9^3 window whose minimum lies inside it: the descent walks from
  // the center to the minimum without scoring most of the 729 points.
  const SearchDomain domain{Orientation{50, 120, 40}, 0.1, 9};
  const WindowResult result =
      sliding_window_search(fx.matcher, spectrum, domain);
  EXPECT_LT(result.matchings, 729u / 2);
  EXPECT_EQ(result.best_distance, fx.matcher.distance(spectrum, result.best));
}

TEST(SlidingWindow, MatchingCounterAttributionIsExact) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  fx.matcher.reset_matchings();
  const SearchDomain domain{truth, 1.0, 3};
  const WindowResult result =
      sliding_window_search(fx.matcher, spectrum, domain);
  EXPECT_EQ(result.matchings, fx.matcher.matchings());
}

}  // namespace
