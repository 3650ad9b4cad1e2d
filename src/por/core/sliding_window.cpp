// POR_HOT_PATH
//
// One search per refine step; all scratch in thread-local vectors
// (hot-path-alloc lint enforces the zero-allocation steady state).
#include "por/core/sliding_window.hpp"

#include <cstdint>
#include <limits>
#include <vector>

#include "por/obs/registry.hpp"
#include "por/util/contracts.hpp"

namespace por::core {

namespace {

/// Thread-local, registry-keyed cache of the window counters (same
/// pattern as por/fft/obs_handles.hpp).  All four metric names exceed
/// libstdc++'s 15-char SSO, so resolving them per search used to heap-
/// allocate four temporary std::strings — on the steady-state matching
/// path that is the difference between zero and nonzero general-heap
/// allocations (the bench_matcher gate).
struct WindowObs {
  std::uint64_t registry_id = 0;
  obs::Counter* searches = nullptr;  ///< "window.searches"
  obs::Counter* slides = nullptr;    ///< "window.slides"
  obs::Counter* hits = nullptr;      ///< "window.cache_hits"
  obs::Counter* misses = nullptr;    ///< "window.cache_misses"
};

WindowObs& window_obs() {
  thread_local WindowObs handles;
  obs::MetricsRegistry& registry = obs::current_registry();
  if (handles.searches == nullptr || handles.registry_id != registry.id()) {
    handles.registry_id = registry.id();
    handles.searches = &registry.counter("window.searches");
    handles.slides = &registry.counter("window.slides");
    handles.hits = &registry.counter("window.cache_hits");
    handles.misses = &registry.counter("window.cache_misses");
  }
  return handles;
}

}  // namespace

WindowResult sliding_window_search(const FourierMatcher& matcher,
                                   const em::Image<em::cdouble>& view_spectrum,
                                   const SearchDomain& initial_domain,
                                   int max_slides, ScoreCache* cache,
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
  const std::size_t count =
      static_cast<std::size_t>(w) * static_cast<std::size_t>(w) *
      static_cast<std::size_t>(w);
  // Search scratch lives in the calling thread's vectors, which only
  // grow: after the first search of a given width repeated searches
  // never touch the general heap.  Nothing below re-enters the search.
  // por-lint: allow(hot-path-alloc) thread-local scratch, grows once per width
  thread_local std::vector<em::Orientation> candidate_buf;
  // por-lint: allow(hot-path-alloc) thread-local scratch, grows once per width
  thread_local std::vector<double> score_buf;
  // por-lint: allow(hot-path-alloc) thread-local scratch, grows once per width
  thread_local std::vector<std::size_t> missing_buf;
  candidate_buf.reserve(count);
  missing_buf.reserve(count);
  if (score_buf.size() < count) score_buf.resize(count);
  const contracts::checked_span<double> scores(score_buf.data(), count);

  for (int round = 0;; ++round) {
    // Cooperative cancellation: the round boundary is the coarse poll,
    // the stride check below the fine one.
    if (cancel != nullptr) cancel->check();

    // Step (g): enumerate the w^3 candidate grid (theta-major, same
    // order as SearchDomain::enumerate, which fixes tie-breaking).
    candidate_buf.clear();
    for (int it = 0; it < w; ++it) {
      for (int ip = 0; ip < w; ++ip) {
        for (int io = 0; io < w; ++io) {
          candidate_buf.push_back(
              em::Orientation{domain.center.theta + domain.offset(it),
                              domain.center.phi + domain.offset(ip),
                              domain.center.omega + domain.offset(io)});
        }
      }
    }
    const contracts::checked_span<const em::Orientation> candidates(
        candidate_buf);

    // Resolve candidates against the score cache; overlapping slide
    // windows and repeated passes re-use old scores here instead of
    // re-running the matching kernel.
    missing_buf.clear();
    if (cache != nullptr) {
      for (std::size_t i = 0; i < count; ++i) {
        if (const std::optional<double> hit = cache->lookup(candidates[i])) {
          scores[i] = *hit;
        } else {
          missing_buf.push_back(i);
        }
      }
      const std::uint64_t hits =
          static_cast<std::uint64_t>(count - missing_buf.size());
      result.cache_hits += hits;
      obs.hits->add(hits);
      obs.misses->add(static_cast<std::uint64_t>(missing_buf.size()));
    } else {
      for (std::size_t i = 0; i < count; ++i) missing_buf.push_back(i);
    }
    const contracts::checked_span<const std::size_t> missing(missing_buf);

    // Step (h): score the remaining candidates.
    for (std::size_t mi = 0; mi < missing.size(); ++mi) {
      if (cancel != nullptr && (mi % kCancelCheckStride) == 0 && mi != 0) {
        cancel->check();
      }
      const std::size_t i = missing[mi];
      scores[i] = matcher.distance(view_spectrum, candidates[i]);
    }
    if (cache != nullptr) {
      for (std::size_t mi = 0; mi < missing.size(); ++mi) {
        const std::size_t i = missing[mi];
        cache->insert(candidates[i], scores[i]);
      }
    }
    // Count this search's own matchings (one distance() per missing
    // candidate) rather than a before/after delta of the matcher's
    // shared counter: concurrent searches on one matcher (the serve
    // scheduler refines many views against a shared refiner) would
    // bleed into each other's deltas and break the bitwise-identical
    // per-view statistics.
    result.matchings += static_cast<std::uint64_t>(missing.size());

    // Reduce in candidate order — bitwise the same selection (strict
    // <, first wins) as the original serial triple loop.
    double best_distance = std::numeric_limits<double>::infinity();
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < count; ++i) {
      // A NaN score would poison the strict-< argmin silently (NaN
      // never compares less, so the candidate vanishes); matching
      // distances are finite by construction.
      POR_FINITE(scores[i]);
      if (scores[i] < best_distance) {
        best_distance = scores[i];
        best_index = i;
      }
    }
    POR_BOUNDS(best_index, count);
    const int best_it = static_cast<int>(best_index) / (w * w);
    const int best_ip = (static_cast<int>(best_index) / w) % w;
    const int best_io = static_cast<int>(best_index) % w;
    result.best = candidates[best_index];
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
