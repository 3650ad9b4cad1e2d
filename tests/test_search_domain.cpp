#include <gtest/gtest.h>

#include <cmath>

#include "por/core/search_domain.hpp"

namespace {

using namespace por::core;
using por::em::Orientation;

TEST(SearchDomain, EnumerateHasWidthCubedPoints) {
  const SearchDomain domain{Orientation{10, 20, 30}, 1.0, 3};
  EXPECT_EQ(domain.cardinality(), 27u);
  EXPECT_EQ(domain.enumerate().size(), 27u);
}

TEST(SearchDomain, OddWidthOffsetsAreSymmetric) {
  const SearchDomain domain{Orientation{}, 0.5, 5};
  EXPECT_DOUBLE_EQ(domain.offset(0), -1.0);
  EXPECT_DOUBLE_EQ(domain.offset(2), 0.0);
  EXPECT_DOUBLE_EQ(domain.offset(4), 1.0);
}

TEST(SearchDomain, EvenWidthStraddlesCenter) {
  const SearchDomain domain{Orientation{}, 1.0, 4};
  EXPECT_DOUBLE_EQ(domain.offset(0), -1.5);
  EXPECT_DOUBLE_EQ(domain.offset(1), -0.5);
  EXPECT_DOUBLE_EQ(domain.offset(2), 0.5);
  EXPECT_DOUBLE_EQ(domain.offset(3), 1.5);
}

TEST(SearchDomain, CenterPointIsInGrid) {
  const SearchDomain domain{Orientation{50, 60, 70}, 0.1, 3};
  const auto grid = domain.enumerate();
  bool found = false;
  for (const auto& o : grid) {
    if (std::abs(o.theta - 50) < 1e-12 && std::abs(o.phi - 60) < 1e-12 &&
        std::abs(o.omega - 70) < 1e-12) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SearchDomain, OnEdgeDetection) {
  const SearchDomain domain{Orientation{}, 1.0, 5};
  EXPECT_TRUE(domain.on_edge(0, 2, 2));
  EXPECT_TRUE(domain.on_edge(2, 4, 2));
  EXPECT_TRUE(domain.on_edge(2, 2, 0));
  EXPECT_FALSE(domain.on_edge(2, 2, 2));
  EXPECT_FALSE(domain.on_edge(1, 3, 2));
}

TEST(SearchDomain, RecenteredKeepsGeometry) {
  const SearchDomain domain{Orientation{1, 2, 3}, 0.25, 7};
  const SearchDomain moved = domain.recentered(Orientation{4, 5, 6});
  EXPECT_DOUBLE_EQ(moved.center.theta, 4.0);
  EXPECT_DOUBLE_EQ(moved.step_deg, 0.25);
  EXPECT_EQ(moved.width, 7);
}

// ---- schedules ------------------------------------------------------------------

TEST(Schedule, PaperScheduleMatchesTables) {
  // r_angular = 1, 0.1, 0.01, 0.002 with per-level search ranges
  // 3, 9, 9, 10 — the header rows of Tables 1 and 2.
  const auto schedule = paper_schedule();
  ASSERT_EQ(schedule.size(), 4u);
  EXPECT_DOUBLE_EQ(schedule[0].angular_step_deg, 1.0);
  EXPECT_DOUBLE_EQ(schedule[1].angular_step_deg, 0.1);
  EXPECT_DOUBLE_EQ(schedule[2].angular_step_deg, 0.01);
  EXPECT_DOUBLE_EQ(schedule[3].angular_step_deg, 0.002);
  EXPECT_EQ(schedule[0].angular_width, 3);
  EXPECT_EQ(schedule[1].angular_width, 9);
  EXPECT_EQ(schedule[2].angular_width, 9);
  EXPECT_EQ(schedule[3].angular_width, 10);
  // delta_center tracks r_angular.
  EXPECT_DOUBLE_EQ(schedule[3].center_step_px, 0.002);
}

TEST(Schedule, DownToTruncates) {
  EXPECT_EQ(schedule_down_to(1.0).size(), 1u);
  EXPECT_EQ(schedule_down_to(0.1).size(), 2u);
  EXPECT_EQ(schedule_down_to(0.002).size(), 4u);
  EXPECT_THROW((void)schedule_down_to(10.0), std::invalid_argument);
}

// ---- resolution floor ----------------------------------------------------------

TEST(ResolutionFloor, PaperScheduleVerdictsFollowThePaddedRadius) {
  // At l = 64, r_map = 8 (padded radius 16 px) the 0.01 and 0.002 deg
  // steps move the outermost matched sample by 0.0028 and 0.00056 px:
  // those two levels refine the center only.  At l = 331 with the
  // Tables' r_map = l/2 - 4 (padded radius 323 px) even 0.002 deg moves
  // it 0.011 px, so all four levels search angles.
  int angular_at_16 = 0, angular_at_323 = 0;
  for (const SearchLevel& level : paper_schedule()) {
    angular_at_16 += searches_angles(level.angular_step_deg, 16.0) ? 1 : 0;
    angular_at_323 += searches_angles(level.angular_step_deg, 323.0) ? 1 : 0;
  }
  EXPECT_EQ(angular_at_16, 2);
  EXPECT_EQ(angular_at_323, 4);
  EXPECT_TRUE(searches_angles(0.1, 16.0));
  EXPECT_FALSE(searches_angles(0.01, 16.0));
  EXPECT_NEAR(angular_step_px(0.01, 16.0), 0.0028, 1e-4);
  EXPECT_NEAR(angular_step_px(0.002, 323.0), 0.0113, 1e-4);
}

TEST(ResolutionFloor, FloorSplitsStepsAroundItAndZeroNeverSearches) {
  // Steps a hair above / below the one that moves the sample by
  // kResolutionFloorPx fall on either side of the rule.
  const double r_pad = 20.0;
  const double at_floor_deg =
      kResolutionFloorPx / r_pad * 180.0 / 3.141592653589793;
  EXPECT_TRUE(searches_angles(at_floor_deg * (1.0 + 1e-12), r_pad));
  EXPECT_FALSE(searches_angles(at_floor_deg * (1.0 - 1e-9), r_pad));
  EXPECT_FALSE(searches_angles(0.0, r_pad));
  EXPECT_FALSE(searches_angles(1.0, 0.0));
}

// ---- cardinality formulas ----------------------------------------------------------

TEST(Cardinality, PaperSection3Example) {
  // "if r_angular = 0.1 and the search range is from 0 to 180 for all
  // three angles, the size of the search space is (1800)^3 = 5.8e9".
  const double p =
      exhaustive_cardinality(180.0, 180.0, 180.0, 0.1);
  EXPECT_NEAR(p, 5.832e9, 1e7);
}

TEST(Cardinality, SixOrdersOfMagnitudeVsIcosahedral) {
  // §3: the asymmetric search space is ~6 orders of magnitude larger
  // than the icosahedral one (~4,000 views at 0.1 degrees).
  const double asymmetric = exhaustive_cardinality(180, 180, 180, 0.1);
  const double icosahedral = 4000.0;
  const double ratio = asymmetric / icosahedral;
  EXPECT_GT(ratio, 1e5);
  EXPECT_LT(ratio, 1e8);
}

TEST(Cardinality, RejectsBadStep) {
  EXPECT_THROW((void)exhaustive_cardinality(10, 10, 10, 0.0),
               std::invalid_argument);
}

TEST(MultiresMatchings, PaperSection4Example) {
  // "assume the initial value is theta = 65, the search domain is 60
  // to 70 and we require an angular resolution of 0.001.  A one step
  // search would require 5000 matching operations versus 35 for a
  // multi-resolution matching" — per angle: one-step = range/step =
  // 10/0.002 = 5000; multi-resolution with 5-point windows refining
  // 10x per level: 7 levels x 5 = 35.
  const double one_step_per_angle = 10.0 / 0.002;
  EXPECT_NEAR(one_step_per_angle, 5000.0, 1e-9);
  const std::uint64_t multi = multires_matchings(
      /*initial_range_deg=*/10.0, /*final_step_deg=*/0.002,
      /*width=*/5, /*ratio=*/10.0, /*angles=*/1);
  EXPECT_LE(multi, 40u);
  EXPECT_GE(multi, 20u);
}

TEST(MultiresMatchings, ThreeAnglesGainIsFourOrders) {
  // §4: "the multi-resolution approach reduces the number of matching
  // operations for a single experimental view by almost four orders of
  // magnitude" (for all three angles).
  const double one_step = std::pow(10.0 / 0.002, 3.0);
  const std::uint64_t multi =
      multires_matchings(10.0, 0.002, 5, 10.0, 3);
  const double gain = one_step / static_cast<double>(multi);
  EXPECT_GT(gain, 1e4);
}

TEST(MultiresMatchings, RejectsBadArguments) {
  EXPECT_THROW((void)multires_matchings(0.0, 0.1, 3), std::invalid_argument);
  EXPECT_THROW((void)multires_matchings(10.0, 0.0, 3), std::invalid_argument);
  EXPECT_THROW((void)multires_matchings(10.0, 0.1, 1), std::invalid_argument);
}

}  // namespace
