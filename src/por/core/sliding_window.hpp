// por/core/sliding_window.hpp
//
// Steps (f)-(i): search the angular grid for the minimum-distance cut
// and, whenever the minimum lands on the edge of the domain, re-center
// the domain there and search again — "this sliding-window approach
// increases the number of matching operations, but at the same time
// improves the quality of the solution" (§4).
#pragma once

#include <cstdint>

#include "por/core/cancel.hpp"
#include "por/core/matcher.hpp"
#include "por/core/search_domain.hpp"

namespace por::core {

struct WindowResult {
  em::Orientation best;         ///< O_mu, the minimum-distance orientation
  double best_distance = 0.0;   ///< d_mu
  int slides = 0;               ///< n_window: times the window moved
  std::uint64_t matchings = 0;  ///< distance() calls spent
};

/// Run the grid search with the sliding-window rule.  `max_slides`
/// bounds runaway sliding on pathological (e.g. featureless) data;
/// the paper's tables observe 0-2 slides in practice.
///
/// Each round descends the w^3 grid from the window's center instead of
/// scoring every candidate: it scores the current point's 3 x 3 x 3
/// neighbourhood (clipped to the window) with distance() and moves to
/// its best point until no neighbour improves.  The round's winner is
/// the minimum over the scored candidates (strict <, first in candidate
/// order) — the exhaustive winner whenever the window's distance has
/// one grid minimum (DESIGN.md §5) — and best_distance is its
/// distance().
///
/// `cancel`, when non-null, is polled cooperatively — at every round
/// start and every kCancelCheckStride scored candidates — and throws
/// core::Cancelled the moment cancellation or the deadline is
/// observed, so a service job with an expired deadline stops
/// mid-search instead of finishing the round (see
/// por/core/cancel.hpp).
///
/// CONTRACT: initial_domain.width > 0 (the w^3 grid must be
/// non-empty) and every candidate score must be finite — both checked
/// by POR_EXPECT / POR_FINITE in sliding_window.cpp so a NaN distance
/// cannot silently drop a candidate from the strict-< descent.
[[nodiscard]] WindowResult sliding_window_search(
    const FourierMatcher& matcher, const em::Image<em::cdouble>& view_spectrum,
    const SearchDomain& initial_domain, int max_slides = 8,
    const CancelToken* cancel = nullptr);

}  // namespace por::core
