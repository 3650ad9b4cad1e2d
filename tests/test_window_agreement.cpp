// The window search against the exhaustive search it replaced.
// sliding_window_search descends the w^3 grid from the window's center
// instead of scoring every candidate; the exhaustive search — a plain
// distance() loop over the whole grid with the same slide rule — stays
// here as the oracle.  On the science gate's data the descent must
// return the exhaustive winner, bit for bit, in at least 99% of the
// windows, and every winner's distance must be distance() itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "por/core/sliding_window.hpp"
#include "por/em/ctf.hpp"
#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/util/rng.hpp"

namespace {

using namespace por;
using namespace por::core;

/// Every candidate of every round through distance(), argmin strict <
/// in candidate order, slide when the winner touches the edge.
WindowResult exhaustive_search(const FourierMatcher& matcher,
                               const em::Image<em::cdouble>& spectrum,
                               SearchDomain domain, int max_slides) {
  WindowResult result;
  const int w = domain.width;
  for (int round = 0;; ++round) {
    const std::vector<em::Orientation> candidates = domain.enumerate();
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double d = matcher.distance(spectrum, candidates[i]);
      if (d < best) {
        best = d;
        best_index = i;
      }
    }
    result.matchings += candidates.size();
    result.best = candidates[best_index];
    result.best_distance = best;
    const int it = static_cast<int>(best_index) / (w * w);
    const int ip = (static_cast<int>(best_index) / w) % w;
    const int io = static_cast<int>(best_index) % w;
    if (!domain.on_edge(it, ip, io) || round >= max_slides) break;
    domain = domain.recentered(result.best);
    ++result.slides;
  }
  return result;
}

/// The science gate's views (tests/test_science.cpp): icosahedral
/// phantom, CTF at SNR 2 with Wiener correction, centers up to 1 px
/// off, initial orientations on a 3 deg grid.
struct GateData {
  em::Volume<double> map;
  std::vector<em::Image<double>> views;
  std::vector<em::Orientation> truth, initial;
  std::vector<std::pair<double, double>> centers;
};

em::CtfParams microscope() {
  em::CtfParams ctf;
  ctf.pixel_size_a = 2.8;
  ctf.defocus_a = 16000.0;
  return ctf;
}

GateData gate_data(std::size_t l, std::size_t count, std::uint64_t seed) {
  em::PhantomSpec spec;
  spec.l = l;
  const em::BlobModel particle = em::make_sindbis_like(spec);
  GateData data;
  data.map = particle.rasterize(l);
  util::Rng rng(seed);
  const auto snap = [](double deg) { return 3.0 * std::round(deg / 3.0); };
  for (std::size_t i = 0; i < count; ++i) {
    double theta = 0.0, phi = 0.0;
    rng.sphere_point(theta, phi);
    const em::Orientation o{em::rad2deg(theta), em::rad2deg(phi),
                            rng.uniform(0.0, 360.0)};
    const double dx = rng.uniform(-1.0, 1.0);
    const double dy = rng.uniform(-1.0, 1.0);
    em::Image<em::cdouble> spectrum =
        em::centered_fft2(particle.project_analytic(l, o, dx, dy));
    em::apply_ctf(spectrum, microscope());
    em::Image<double> view = em::centered_ifft2(spectrum);
    em::add_gaussian_noise(view, 2.0, rng);
    data.views.push_back(std::move(view));
    data.truth.push_back(o);
    data.centers.emplace_back(dx, dy);
    data.initial.push_back({snap(o.theta), snap(o.phi), snap(o.omega)});
  }
  return data;
}

struct Agreement {
  std::size_t windows = 0;
  std::size_t agree = 0;
  std::uint64_t descent_matchings = 0;
  std::uint64_t exhaustive_matchings = 0;
};

/// Search each view once with both searches, from `start[k]` at the
/// center `centers[k]`, and count bit-identical winners.
Agreement agreement(const GateData& data, double step_deg, int width,
                    const std::vector<em::Orientation>& start,
                    const std::vector<std::pair<double, double>>& centers) {
  MatchOptions options;
  options.r_map = static_cast<double>(data.map.nx()) / 8.0;
  options.ctf = microscope();
  options.ctf_correction = em::CtfCorrection::kWiener;
  options.wiener_snr = 20.0;
  const FourierMatcher matcher(data.map, options);
  Agreement a;
  for (std::size_t k = 0; k < data.views.size(); ++k) {
    em::Image<em::cdouble> spectrum = matcher.prepare_view(data.views[k]);
    const AnnulusTable& ring = matcher.annulus();
    em::translate_phase_into(spectrum, spectrum, -centers[k].first,
                             -centers[k].second, ring.index.data(),
                             ring.size());
    const SearchDomain domain{start[k], step_deg, width};
    const WindowResult got = sliding_window_search(matcher, spectrum, domain);
    const WindowResult want = exhaustive_search(matcher, spectrum, domain, 8);
    EXPECT_EQ(got.best_distance, matcher.distance(spectrum, got.best))
        << "view " << k;
    ++a.windows;
    if (got.best == want.best && got.best_distance == want.best_distance &&
        got.slides == want.slides) {
      ++a.agree;
    }
    a.descent_matchings += got.matchings;
    a.exhaustive_matchings += want.matchings;
  }
  return a;
}

void expect_agreement(const char* name, const Agreement& a) {
  std::printf("%s: %zu / %zu windows agree; matchings per window %.1f "
              "(descent) vs %.1f (exhaustive)\n",
              name, a.agree, a.windows,
              static_cast<double>(a.descent_matchings) /
                  static_cast<double>(a.windows),
              static_cast<double>(a.exhaustive_matchings) /
                  static_cast<double>(a.windows));
  EXPECT_GE(static_cast<double>(a.agree),
            0.99 * static_cast<double>(a.windows));
}

TEST(WindowAgreement, DescentFindsTheExhaustiveWinnerOnGateData) {
  const GateData data = gate_data(64, 192, 7);
  // Level 1 of the paper schedule from the snapped starts, at the
  // origin center the refiner starts from.
  const std::vector<std::pair<double, double>> origin(data.views.size());
  expect_agreement("l=64 1 deg w=3",
                   agreement(data, 1.0, 3, data.initial, origin));
  // Level 2 from within half a degree of the truth, at the true center.
  util::Rng rng(99);
  std::vector<em::Orientation> near;
  for (const em::Orientation& o : data.truth) {
    near.push_back({o.theta + rng.uniform(-0.5, 0.5),
                    o.phi + rng.uniform(-0.5, 0.5),
                    o.omega + rng.uniform(-0.5, 0.5)});
  }
  expect_agreement("l=64 0.1 deg w=9",
                   agreement(data, 0.1, 9, near, data.centers));
}

TEST(WindowAgreement, DescentFindsTheExhaustiveWinnerAtL128) {
  const GateData data = gate_data(128, 24, 13);
  const std::vector<std::pair<double, double>> origin(data.views.size());
  expect_agreement("l=128 1 deg w=3",
                   agreement(data, 1.0, 3, data.initial, origin));
}

}  // namespace
