// POR_HOT_PATH
//
// One search per refine step; all scratch on the frame arena
// (hot-path-alloc lint enforces the zero-allocation steady state).
#include "por/core/sliding_window.hpp"

#include <cstdint>
#include <limits>

#include "por/obs/registry.hpp"
#include "por/util/arena.hpp"
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
  // Search scratch lives on the calling thread's frame arena: after the
  // first search of a given width the chunks are warm and repeated
  // searches never touch the general heap.
  util::ArenaScope scope(util::frame_arena());
  util::ArenaVector<em::Orientation> candidates(util::frame_arena(), count);
  util::ArenaVector<double> scores(util::frame_arena());
  util::ArenaVector<std::size_t> missing(util::frame_arena(), count);
  scores.resize_uninit(count);

  for (int round = 0;; ++round) {
    // Cooperative cancellation: the round boundary is the coarse poll,
    // the stride check below the fine one.
    if (cancel != nullptr) cancel->check();

    // Step (g): enumerate the w^3 candidate grid (theta-major, same
    // order as SearchDomain::enumerate, which fixes tie-breaking).
    candidates.clear();
    for (int it = 0; it < w; ++it) {
      for (int ip = 0; ip < w; ++ip) {
        for (int io = 0; io < w; ++io) {
          candidates.push_back(
              em::Orientation{domain.center.theta + domain.offset(it),
                              domain.center.phi + domain.offset(ip),
                              domain.center.omega + domain.offset(io)});
        }
      }
    }

    // Resolve candidates against the score cache; overlapping slide
    // windows and repeated passes re-use old scores here instead of
    // re-running the matching kernel.
    missing.clear();
    if (cache != nullptr) {
      for (std::size_t i = 0; i < count; ++i) {
        if (const std::optional<double> hit = cache->lookup(candidates[i])) {
          scores[i] = *hit;
        } else {
          missing.push_back(i);
        }
      }
      const std::uint64_t hits =
          static_cast<std::uint64_t>(count - missing.size());
      result.cache_hits += hits;
      obs.hits->add(hits);
      obs.misses->add(static_cast<std::uint64_t>(missing.size()));
    } else {
      for (std::size_t i = 0; i < count; ++i) missing.push_back(i);
    }

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
    const contracts::checked_span<const double> scores_view(scores.data(),
                                                            scores.size());
    for (std::size_t i = 0; i < count; ++i) {
      // A NaN score would poison the strict-< argmin silently (NaN
      // never compares less, so the candidate vanishes); matching
      // distances are finite by construction.
      POR_FINITE(scores_view[i]);
      if (scores_view[i] < best_distance) {
        best_distance = scores_view[i];
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
