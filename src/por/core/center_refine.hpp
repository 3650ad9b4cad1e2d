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

/// d(translate(F, -dx, -dy), C) over the matching annulus for a box of
/// translations against one cut, on separable phase tables.  The
/// translation multiplies F by e^{2 pi i (ku dx + kv dy) / n}, so
///   d = (sum w |F|^2 + sum w |C|^2
///        - 2 Re sum_v e^{2 pi i kv dy / n} sum_u P_uv e^{2 pi i ku dx / n})
///       / n^2,   P = w F conj(C),
/// with P and the norms computed once per cut.  A width x width box
/// costs width annulus passes (one per dx, through a ku phase table)
/// plus width^2 short sums over the annulus rows, instead of one sincos
/// per pixel per translation.
class CenterScorer {
 public:
  /// `cut` is matcher.annulus_cut(o): the cut on the annulus, in
  /// annulus order; `view_spectrum` is prepare_view's spectrum.
  CenterScorer(const FourierMatcher& matcher,
               const em::Image<em::cdouble>& view_spectrum,
               const std::vector<em::cdouble>& cut);

  /// The distances at dx = cx + (ix - (width - 1) / 2) * step_px and
  /// dy likewise, written to out[iy * width + ix].
  void box(double cx, double cy, double step_px, int box_width,
           double* out) const;

 private:
  std::size_t n_;                      ///< padded view edge
  long reach_;                         ///< largest |ku|, |kv| on the ring
  double norms_ = 0.0;                 ///< sum w |F|^2 + sum w |C|^2
  std::vector<em::cdouble> p_;         ///< w F conj(C), annulus order
  std::vector<std::size_t> u_;         ///< ku + reach per pixel
  std::vector<std::size_t> row_start_; ///< annulus rows (equal kv), + end
  std::vector<double> row_kv_;         ///< kv of each row
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
