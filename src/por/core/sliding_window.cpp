// POR_HOT_PATH
//
// One search per refine step; all scratch in thread-local vectors
// (hot-path-alloc lint enforces the zero-allocation steady state).
#include "por/core/sliding_window.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "por/obs/registry.hpp"
#include "por/util/contracts.hpp"

namespace por::core {

namespace {

/// Thread-local, registry-keyed handles of the window counters (same
/// pattern as por/fft/obs_handles.hpp): a name is resolved once per
/// thread and registry, not under the registry's lock on every search.
struct WindowObs {
  std::uint64_t registry_id = 0;
  obs::Counter* searches = nullptr;  ///< "window.searches"
  obs::Counter* slides = nullptr;    ///< "window.slides"
};

WindowObs& window_obs() {
  thread_local WindowObs handles;
  obs::MetricsRegistry& registry = obs::current_registry();
  if (handles.searches == nullptr || handles.registry_id != registry.id()) {
    handles.registry_id = registry.id();
    handles.searches = &registry.counter("window.searches");
    handles.slides = &registry.counter("window.slides");
  }
  return handles;
}

}  // namespace

WindowResult sliding_window_search(const FourierMatcher& matcher,
                                   const em::Image<em::cdouble>& view_spectrum,
                                   const SearchDomain& initial_domain,
                                   int max_slides,
                                   const CancelToken* cancel) {
  WindowObs& obs = window_obs();
  obs.searches->add();

  // CONTRACT: a positive window width is what makes `count` non-zero,
  // so the argmin below always selects a real candidate.
  POR_EXPECT(initial_domain.width > 0,
             "sliding window needs a positive width:", initial_domain.width);
  WindowResult result;
  SearchDomain domain = initial_domain;

  const int w = domain.width;
  const std::size_t wu = static_cast<std::size_t>(w);
  const std::size_t count = wu * wu * wu;
  // Search scratch lives in the calling thread's vectors, which only
  // grow: after the first search of a given width repeated searches
  // never touch the general heap.  Nothing below re-enters the search.
  // por-lint: allow(hot-path-alloc) thread-local scratch, grows once per width
  thread_local std::vector<double> score_buf;
  // por-lint: allow(hot-path-alloc) thread-local scratch, grows once per width
  thread_local std::vector<char> scored_buf;
  if (score_buf.size() < count) score_buf.resize(count);
  if (scored_buf.size() < count) scored_buf.resize(count);
  const contracts::checked_span<double> scores(score_buf.data(), count);
  const contracts::checked_span<char> scored(scored_buf.data(), count);

  // Step (g): candidate i of the w^3 grid, built when it is used
  // (theta-major, same order and arithmetic as SearchDomain::enumerate,
  // which fixes tie-breaking).
  const auto candidate = [&](std::size_t i) {
    return em::Orientation{
        domain.center.theta + domain.offset(static_cast<int>(i / (wu * wu))),
        domain.center.phi + domain.offset(static_cast<int>((i / wu) % wu)),
        domain.center.omega + domain.offset(static_cast<int>(i % wu))};
  };

  for (int round = 0;; ++round) {
    // Cooperative cancellation: the round boundary is the coarse poll,
    // the stride check below the fine one.
    if (cancel != nullptr) cancel->check();

    std::fill(scored_buf.begin(), scored_buf.begin() + count, char{0});

    // Step (h): score candidate i with one matching, once per round.
    std::size_t matched = 0;
    const auto score = [&](std::size_t i) {
      if (scored[i] != 0) return;
      scored[i] = 1;
      if (cancel != nullptr && matched % kCancelCheckStride == 0 &&
          matched != 0) {
        cancel->check();
      }
      ++matched;
      scores[i] = matcher.distance(view_spectrum, candidate(i));
      // A NaN score would poison the strict-< comparisons silently (NaN
      // never compares less, so the candidate vanishes); matching
      // distances are finite by construction.
      POR_FINITE(scores[i]);
    };

    // Steepest descent on the grid from the window's center (for an
    // even width, the grid point just below it): score the current
    // point's 3 x 3 x 3 neighbourhood (clipped to the window) and move
    // to its best point (strict <; a tie keeps the point held) until no
    // neighbour improves.  Each move lowers the distance, so the
    // stopping point is the minimum of every scored candidate; on a
    // window whose distance has one grid minimum it is the minimum of
    // the whole w^3 grid, at a fraction of its matchings (EXPERIMENTS.md,
    // "§4 window search").
    const int h = (w - 1) / 2;
    std::size_t current = (static_cast<std::size_t>(h) * wu +
                           static_cast<std::size_t>(h)) * wu +
                          static_cast<std::size_t>(h);
    score(current);
    for (;;) {
      const int ct = static_cast<int>(current / (wu * wu));
      const int cp = static_cast<int>((current / wu) % wu);
      const int co = static_cast<int>(current % wu);
      std::size_t next = current;
      for (int it = std::max(ct - 1, 0); it <= std::min(ct + 1, w - 1); ++it) {
        for (int ip = std::max(cp - 1, 0); ip <= std::min(cp + 1, w - 1);
             ++ip) {
          for (int io = std::max(co - 1, 0); io <= std::min(co + 1, w - 1);
               ++io) {
            const std::size_t i = (static_cast<std::size_t>(it) * wu +
                                   static_cast<std::size_t>(ip)) * wu +
                                  static_cast<std::size_t>(io);
            score(i);
            if (scores[i] < scores[next]) next = i;
          }
        }
      }
      if (next == current) break;
      current = next;
    }
    // Count this search's own matchings rather than a before/after
    // delta of the matcher's shared counter: concurrent searches on one
    // matcher (the serve scheduler refines many views against a shared
    // refiner) would bleed into each other's deltas and break the
    // bitwise-identical per-view statistics.
    result.matchings += static_cast<std::uint64_t>(matched);

    // The winner: the minimum over the scored candidates in candidate
    // order (strict <, first wins) — the descent's stopping point, with
    // exact ties going to the lower index as in the exhaustive loop.
    double best_distance = std::numeric_limits<double>::infinity();
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (scored[i] != 0 && scores[i] < best_distance) {
        best_distance = scores[i];
        best_index = i;
      }
    }
    POR_BOUNDS(best_index, count);
    const int best_it = static_cast<int>(best_index) / (w * w);
    const int best_ip = (static_cast<int>(best_index) / w) % w;
    const int best_io = static_cast<int>(best_index) % w;
    result.best = candidate(best_index);
    result.best_distance = best_distance;

    // Step (i): slide if the best fit touches the edge.
    if (!domain.on_edge(best_it, best_ip, best_io) || round >= max_slides) {
      break;
    }
    domain = domain.recentered(result.best);
    ++result.slides;
    obs.slides->add();
  }

  return result;
}

}  // namespace por::core
