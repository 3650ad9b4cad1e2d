#include "por/core/center_refine.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace por::core {

namespace {

/// d(translate(F, -dx, -dy), C) over the matching annulus, with the
/// translation folded into the loop as a per-sample phase ramp (no
/// spectrum copies).  `c` holds the cut's annulus samples in ring
/// order.  Walks the matcher's precomputed AnnulusTable —
/// frequencies, ring membership and weights are table lookups, so the
/// per-evaluation work is one sincos + one complex multiply per table
/// pixel (no sqrt, no branch tests).  The table holds the Hermitian
/// half of the ring: a translated real view stays Hermitian, so each
/// mirror's term equals its partner's and rides in the weight.
double translated_distance(const em::Image<em::cdouble>& f,
                           const std::vector<em::cdouble>& c,
                           const AnnulusTable& ring, double dx, double dy) {
  const std::size_t n = f.nx();
  const std::size_t count = ring.size();
  const em::cdouble* fp = f.data();
  const em::cdouble* cp = c.data();
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Translating the image by (-dx, -dy) multiplies F by
    // exp(+2*pi*i*(kx*dx + ky*dy)/n).
    const double angle = 2.0 * std::numbers::pi *
                         (ring.ku[i] * dx + ring.kv[i] * dy) /
                         static_cast<double>(n);
    const em::cdouble shifted =
        fp[ring.index[i]] * em::cdouble(std::cos(angle), std::sin(angle));
    const em::cdouble diff = shifted - cp[i];
    sum += ring.weight[i] * std::norm(diff);
  }
  return sum / static_cast<double>(n * n);
}

}  // namespace

CenterResult refine_center(const FourierMatcher& matcher,
                           const em::Image<em::cdouble>& view_spectrum,
                           const std::vector<em::cdouble>& best_cut,
                           double start_dx, double start_dy, double step_px,
                           int box_width, int max_slides) {
  if (box_width < 2 || step_px <= 0.0) {
    throw std::invalid_argument("refine_center: bad box");
  }
  const AnnulusTable& ring = matcher.annulus();
  const std::size_t big = matcher.edge() * matcher.options().pad;
  if (view_spectrum.nx() != big || view_spectrum.ny() != big ||
      best_cut.size() != ring.size()) {
    throw std::invalid_argument("refine_center: spectrum size mismatch");
  }

  CenterResult result;
  result.dx = start_dx;
  result.dy = start_dy;
  double cx = start_dx, cy = start_dy;

  for (int round = 0;; ++round) {
    double best = std::numeric_limits<double>::infinity();
    int best_iy = 0, best_ix = 0;
    for (int iy = 0; iy < box_width; ++iy) {
      const double dy =
          cy + (static_cast<double>(iy) -
                static_cast<double>(box_width - 1) / 2.0) *
                   step_px;
      for (int ix = 0; ix < box_width; ++ix) {
        const double dx =
            cx + (static_cast<double>(ix) -
                  static_cast<double>(box_width - 1) / 2.0) *
                     step_px;
        const double d =
            translated_distance(view_spectrum, best_cut, ring, dx, dy);
        ++result.evaluations;
        if (d < best) {
          best = d;
          best_iy = iy;
          best_ix = ix;
          result.dx = dx;
          result.dy = dy;
          result.best_distance = d;
        }
      }
    }
    const bool on_edge = best_iy == 0 || best_iy == box_width - 1 ||
                         best_ix == 0 || best_ix == box_width - 1;
    if (!on_edge || round >= max_slides) break;
    cx = result.dx;
    cy = result.dy;
    ++result.slides;
  }
  return result;
}

}  // namespace por::core
