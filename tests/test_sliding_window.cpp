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
  // center, no slide needed.
  const SearchDomain domain{truth, 1.0, 5};
  const WindowResult result =
      sliding_window_search(fx.matcher, spectrum, domain);
  EXPECT_EQ(result.slides, 0);
  EXPECT_EQ(result.matchings, 125u);
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

// ---- score cache -----------------------------------------------------------

TEST(ScoreCache, StoresAndRecallsExactGridPoints) {
  ScoreCache cache(0.25);  // quantum for a 1-degree grid
  const Orientation a{50.0, 120.0, 40.0};
  const Orientation b{51.0, 120.0, 40.0};
  EXPECT_FALSE(cache.lookup(a).has_value());
  cache.insert(a, 1.5);
  cache.insert(b, 2.5);
  ASSERT_TRUE(cache.lookup(a).has_value());
  EXPECT_EQ(*cache.lookup(a), 1.5);
  EXPECT_EQ(*cache.lookup(b), 2.5);
  EXPECT_EQ(cache.size(), 2u);
  // fp drift far below half a quantum still hits the same key.
  EXPECT_TRUE(cache.lookup(Orientation{50.0 + 1e-9, 120.0, 40.0}).has_value());
  // A different grid point never collides.
  EXPECT_FALSE(cache.lookup(Orientation{50.0, 121.0, 40.0}).has_value());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(a).has_value());
}

TEST(ScoreCache, CountsHitsAndMisses) {
  ScoreCache cache(0.1);
  const Orientation o{10, 20, 30};
  (void)cache.lookup(o);
  cache.insert(o, 3.0);
  (void)cache.lookup(o);
  (void)cache.lookup(o);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(ScoreCache, GrowsPastInitialCapacity) {
  ScoreCache cache(0.25, /*initial_capacity=*/16);
  for (int t = 0; t < 12; ++t) {
    for (int p = 0; p < 12; ++p) {
      cache.insert(Orientation{static_cast<double>(t),
                               static_cast<double>(p), 0.0},
                   static_cast<double>(t * 12 + p));
    }
  }
  EXPECT_EQ(cache.size(), 144u);
  EXPECT_GE(cache.capacity(), 144u);
  for (int t = 0; t < 12; ++t) {
    for (int p = 0; p < 12; ++p) {
      const auto hit = cache.lookup(
          Orientation{static_cast<double>(t), static_cast<double>(p), 0.0});
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(*hit, static_cast<double>(t * 12 + p));
    }
  }
  EXPECT_THROW((void)ScoreCache(0.0), std::invalid_argument);
}

TEST(SlidingWindow, CachedSearchIsIdenticalToUncached) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  // Start off-center so the window slides: overlapping rounds are
  // where the cache earns hits.
  const SearchDomain domain{Orientation{53, 120, 40}, 1.0, 3};
  const WindowResult plain =
      sliding_window_search(fx.matcher, spectrum, domain);
  ScoreCache cache(domain.step_deg / 4.0);
  const WindowResult cached =
      sliding_window_search(fx.matcher, spectrum, domain, 8, &cache);
  EXPECT_EQ(cached.best, plain.best);
  EXPECT_EQ(cached.best_distance, plain.best_distance);
  EXPECT_EQ(cached.slides, plain.slides);
  EXPECT_EQ(plain.cache_hits, 0u);
  // Each slide re-visits a width^2 * (width-1) overlap minus edge
  // effects; with >= 1 slide there must be hits, and every hit is a
  // matching saved.
  ASSERT_GE(cached.slides, 1);
  EXPECT_GT(cached.cache_hits, 0u);
  EXPECT_EQ(cached.matchings + cached.cache_hits, plain.matchings);
  EXPECT_EQ(cache.hits(), cached.cache_hits);
}

TEST(SlidingWindow, WarmCacheServesRepeatSearchEntirely) {
  Fixture fx;
  const Orientation truth{50, 120, 40};
  const auto spectrum =
      fx.matcher.prepare_view(fx.model.project_analytic(fx.l, truth));
  const SearchDomain domain{truth, 1.0, 3};
  ScoreCache cache(domain.step_deg / 4.0);
  const WindowResult first =
      sliding_window_search(fx.matcher, spectrum, domain, 8, &cache);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.matchings, 27u);
  // Same domain, same spectrum, warm cache: zero matcher calls.
  const WindowResult second =
      sliding_window_search(fx.matcher, spectrum, domain, 8, &cache);
  EXPECT_EQ(second.matchings, 0u);
  EXPECT_EQ(second.cache_hits, 27u);
  EXPECT_EQ(second.best, first.best);
  EXPECT_EQ(second.best_distance, first.best_distance);
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
