// por/core/search_domain.hpp
//
// The angular search domain of steps (f)-(i) and the multi-resolution
// schedule of §4: "typically we carry out several refinement steps at
// different angular resolutions, e.g. one at r_angular = 1 deg,
// followed by one at 0.1, one at 0.01, and finally one at 0.002."
#pragma once

#include <cstdint>
#include <vector>

#include "por/em/orientation.hpp"

namespace por::core {

/// A regular (theta, phi, omega) grid centered on an orientation.
///
/// The grid has `width` points per angle with spacing `step_deg`
/// (w_theta = w_phi = w_omega = width; the paper's typical value is
/// 10, giving w = 1000 cuts).  Offsets are symmetric about the center
/// for odd width and straddle it by half a step for even width.
struct SearchDomain {
  em::Orientation center;
  double step_deg = 1.0;
  int width = 3;

  /// All width^3 grid orientations, theta-major.
  [[nodiscard]] std::vector<em::Orientation> enumerate() const;

  /// Grid offset (degrees) of point index i in [0, width).
  [[nodiscard]] double offset(int i) const {
    return (static_cast<double>(i) -
            static_cast<double>(width - 1) / 2.0) *
           step_deg;
  }

  /// Does grid index (it, ip, io) touch the domain boundary?  The
  /// sliding-window rule (step i) re-centers the domain when the best
  /// fit lands on an edge.
  [[nodiscard]] bool on_edge(int it, int ip, int io) const {
    auto edge = [this](int i) { return i == 0 || i == width - 1; };
    return edge(it) || edge(ip) || edge(io);
  }

  /// Number of grid points (w = width^3).
  [[nodiscard]] std::uint64_t cardinality() const {
    const auto w = static_cast<std::uint64_t>(width);
    return w * w * w;
  }

  /// A copy of this domain re-centered on `o` (the sliding window).
  [[nodiscard]] SearchDomain recentered(const em::Orientation& o) const {
    return SearchDomain{o, step_deg, width};
  }
};

/// One level of the multi-resolution schedule: an angular grid plus
/// the matching center-refinement grid of step (k).
struct SearchLevel {
  double angular_step_deg = 1.0;  ///< r_angular at this level
  int angular_width = 3;          ///< grid points per angle
  double center_step_px = 1.0;    ///< delta_center at this level
  int center_width = 3;           ///< center box edge in grid points
};

/// The paper's four-level schedule: r_angular = 1, 0.1, 0.01, 0.002
/// with per-level search ranges 3, 9, 9, 10 (Table 1/2 header rows)
/// and delta_center = 1, 0.1, 0.01, 0.002 pixels.
[[nodiscard]] std::vector<SearchLevel> paper_schedule();

/// The resolution floor of the angular search, in padded pixels: an
/// angular step that moves the outermost matched Fourier sample by
/// less than this is finer than the matching can resolve.
inline constexpr double kResolutionFloorPx = 0.01;

/// How far (padded pixels) an angular step of `step_deg` moves the
/// outermost matched sample, at padded radius `padded_r_map`.
[[nodiscard]] double angular_step_px(double step_deg, double padded_r_map);

/// Does a level of angular step `step_deg` search angles at padded
/// matching radius `padded_r_map`?  Below kResolutionFloorPx the level
/// refines the center only (OrientationRefiner::refine_view).  The
/// verdict depends on the level and the matching radius alone.
[[nodiscard]] bool searches_angles(double step_deg, double padded_r_map);

/// A truncated schedule for small test problems (levels with angular
/// steps >= `coarsest` down to `finest`).
[[nodiscard]] std::vector<SearchLevel> schedule_down_to(double finest_deg);

/// The size-of-search-space formula of §3 for a single-resolution
/// exhaustive search:
///   |P| = (theta_range/r) * (phi_range/r) * (omega_range/r).
/// Ranges in degrees.
[[nodiscard]] double exhaustive_cardinality(double theta_range_deg,
                                            double phi_range_deg,
                                            double omega_range_deg,
                                            double r_angular_deg);

/// Total matchings a multi-resolution search needs to take an
/// uncertainty of `initial_range_deg` per angle down to
/// `final_step_deg`, refining by `ratio` per level with a grid of
/// `width` points per angle per level (the §4 worked example: 65 +- 5
/// deg at 0.001 precision costs 5000 one-step matchings vs 35
/// multi-resolution for one angle).
[[nodiscard]] std::uint64_t multires_matchings(double initial_range_deg,
                                               double final_step_deg,
                                               int width, double ratio = 10.0,
                                               int angles = 3);

}  // namespace por::core
