// por/core/center_refine.hpp
//
// Step (k)-(l): refine the particle center of a view.  The view's
// spectrum is compared against the minimum-distance cut C_mu under
// trial sub-pixel translations (phase ramps) on a center_width x
// center_width grid of spacing delta_center, with the same sliding-
// box rule as the angular search.
#pragma once

#include <cstdint>
#include <vector>

#include "por/core/matcher.hpp"

namespace por::core {

struct CenterResult {
  double dx = 0.0;              ///< refined center offset (pixels)
  double dy = 0.0;
  double best_distance = 0.0;
  int slides = 0;
  std::uint64_t evaluations = 0;  ///< center positions tried (n_center total)
};

/// Search translations of the view against the fixed cut.  `best_cut`
/// is matcher.annulus_cut(o_mu): the cut sampled on the matching
/// annulus only, in annulus order.  `start_dx/y` is the current center
/// estimate (the search box is centered there), `step_px` is
/// delta_center and `box_width` the grid edge (paper example: a 3 x 3
/// box, n_center = 9).
[[nodiscard]] CenterResult refine_center(
    const FourierMatcher& matcher, const em::Image<em::cdouble>& view_spectrum,
    const std::vector<em::cdouble>& best_cut, double start_dx,
    double start_dy, double step_px, int box_width = 3, int max_slides = 8);

}  // namespace por::core
