#include "por/core/center_refine.hpp"

#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace por::core {

namespace {

/// e^{2 pi i k shift / n} for k = -reach .. reach.
void phase_table(std::vector<em::cdouble>& table, long reach, double shift,
                 std::size_t n) {
  const double scale =
      2.0 * std::numbers::pi * shift / static_cast<double>(n);
  for (long k = -reach; k <= reach; ++k) {
    table[static_cast<std::size_t>(k + reach)] =
        std::polar(1.0, scale * static_cast<double>(k));
  }
}

}  // namespace

CenterScorer::CenterScorer(const FourierMatcher& matcher,
                           const em::Image<em::cdouble>& view_spectrum,
                           const std::vector<em::cdouble>& cut)
    : n_(view_spectrum.nx()),
      reach_(static_cast<long>(std::ceil(matcher.padded_r_map()))) {
  // The table holds the Hermitian half of the ring: a translated real
  // view stays Hermitian, so each mirror's term equals its partner's
  // and rides in the weight.  Its pixels run y-major, so equal kv
  // forms contiguous rows.
  const AnnulusTable& ring = matcher.annulus();
  const em::cdouble* f = view_spectrum.data();
  p_.resize(ring.size());
  u_.resize(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const em::cdouble fi = f[ring.index[i]];
    norms_ += ring.weight[i] * (std::norm(fi) + std::norm(cut[i]));
    p_[i] = ring.weight[i] * fi * std::conj(cut[i]);
    u_[i] = static_cast<std::size_t>(static_cast<long>(ring.ku[i]) + reach_);
    if (i == 0 || ring.kv[i] != ring.kv[i - 1]) {
      row_start_.push_back(i);
      row_kv_.push_back(ring.kv[i]);
    }
  }
  row_start_.push_back(ring.size());
}

void CenterScorer::box(double cx, double cy, double step_px, int box_width,
                       double* out) const {
  const std::size_t width = static_cast<std::size_t>(box_width);
  const std::size_t rows = row_kv_.size();
  std::vector<em::cdouble> table(static_cast<std::size_t>(2 * reach_ + 1));
  std::vector<em::cdouble> row_sums(width * rows);
  // Per dx: sum_u P_uv e^{2 pi i ku dx / n} on every row.
  for (std::size_t ix = 0; ix < width; ++ix) {
    const double dx = cx + (static_cast<double>(ix) -
                            static_cast<double>(box_width - 1) / 2.0) *
                               step_px;
    phase_table(table, reach_, dx, n_);
    for (std::size_t r = 0; r < rows; ++r) {
      double re = 0.0, im = 0.0;
      for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i) {
        const em::cdouble t = table[u_[i]];
        re += p_[i].real() * t.real() - p_[i].imag() * t.imag();
        im += p_[i].real() * t.imag() + p_[i].imag() * t.real();
      }
      row_sums[ix * rows + r] = {re, im};
    }
  }
  // Per dy: combine the rows with their kv phase.
  const double scale = 2.0 * std::numbers::pi / static_cast<double>(n_);
  const double n2 = static_cast<double>(n_ * n_);
  for (std::size_t iy = 0; iy < width; ++iy) {
    const double dy = cy + (static_cast<double>(iy) -
                            static_cast<double>(box_width - 1) / 2.0) *
                               step_px;
    for (std::size_t r = 0; r < rows; ++r) {
      table[r] = std::polar(1.0, scale * row_kv_[r] * dy);
    }
    for (std::size_t ix = 0; ix < width; ++ix) {
      double re = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        const em::cdouble s = row_sums[ix * rows + r];
        re += s.real() * table[r].real() - s.imag() * table[r].imag();
      }
      out[iy * width + ix] = (norms_ - 2.0 * re) / n2;
    }
  }
}

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

  const CenterScorer scorer(matcher, view_spectrum, best_cut);
  std::vector<double> box(static_cast<std::size_t>(box_width) *
                          static_cast<std::size_t>(box_width));
  for (int round = 0;; ++round) {
    scorer.box(cx, cy, step_px, box_width, box.data());
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
        const double d = box[static_cast<std::size_t>(iy * box_width + ix)];
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
