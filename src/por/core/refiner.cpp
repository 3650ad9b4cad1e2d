#include "por/core/refiner.hpp"

#include "por/em/projection.hpp"
#include "por/obs/registry.hpp"
#include "por/obs/span.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/resilience/quarantine.hpp"
#include "por/serve/scheduler.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace por::core {

resilience::CheckpointRecord to_record(std::uint64_t index,
                                       const ViewResult& result) {
  resilience::CheckpointRecord record;
  record.view_index = index;
  record.theta = result.orientation.theta;
  record.phi = result.orientation.phi;
  record.omega = result.orientation.omega;
  record.center_x = result.center_x;
  record.center_y = result.center_y;
  record.final_distance = result.final_distance;
  record.matchings = result.matchings;
  record.cache_hits = result.cache_hits;
  record.center_evals = result.center_evals;
  record.window_slides = result.window_slides;
  record.quarantined = result.quarantined;
  return record;
}

ViewResult from_record(const resilience::CheckpointRecord& record) {
  ViewResult result;
  result.orientation = {record.theta, record.phi, record.omega};
  result.center_x = record.center_x;
  result.center_y = record.center_y;
  result.final_distance = record.final_distance;
  result.matchings = record.matchings;
  result.cache_hits = record.cache_hits;
  result.center_evals = record.center_evals;
  result.window_slides = record.window_slides;
  result.quarantined = record.quarantined;
  return result;
}

void OrientationRefiner::init() {
  if (config_.schedule.empty()) {
    throw std::invalid_argument("OrientationRefiner: empty schedule");
  }
  if (config_.refine_workers < 0) {
    throw std::invalid_argument(
        "OrientationRefiner: refine_workers must be >= 0");
  }
  obs::MetricsRegistry& registry = obs::current_registry();
  obs_view_span_ = &registry.span_series("refiner.view");
  // The "step.<name>" series carry the paper's step vocabulary; they
  // are the only record of the per-step wall times.
  obs_fft_span_ = &registry.span_series("step.FFT analysis");
  obs_orient_span_ = &registry.span_series("step.Orientation refinement");
  obs_center_span_ = &registry.span_series("step.Center refinement");
  obs_quarantined_ = &registry.counter("resilience.views.quarantined");
}

OrientationRefiner::OrientationRefiner(const em::Volume<double>& density_map,
                                       const RefinerConfig& config)
    : matcher_(density_map, config.matcher_options()), config_(config) {
  init();
}

OrientationRefiner::OrientationRefiner(FourierMatcher matcher,
                                       const RefinerConfig& config)
    : matcher_(std::move(matcher)), config_(config) {
  init();
}

std::unique_ptr<serve::Scheduler> OrientationRefiner::make_scheduler() const {
  if (config_.refine_workers == 1) return nullptr;
  serve::SchedulerOptions options;
  options.workers = static_cast<std::size_t>(config_.refine_workers);
  // por-lint: allow(thread-spawn) the per-rank refine pool, one per call
  return std::make_unique<serve::Scheduler>(options);
}

ViewResult OrientationRefiner::refine_view(const em::Image<double>& view,
                                           const em::Orientation& initial,
                                           double center_x, double center_y,
                                           const CancelToken* cancel) const {
  const obs::SpanTimer view_timer(*obs_view_span_);

  // Poll before any per-view work: a job whose deadline already passed
  // while queued must not pay for the FFT below.
  if (cancel != nullptr) cancel->check();

  // Graceful per-view degradation (DESIGN.md §10): a view with
  // NaN/Inf pixels would drive every matching distance non-finite and
  // poison the whole run's statistics.  Quarantine it — return the
  // initial parameters untouched, flagged, so the drivers can keep it
  // out of the reconstruction and the run report can count it.
  if (!resilience::all_finite(view.data(), view.size())) {
    obs_quarantined_->add();
    ViewResult bad;
    bad.orientation = initial;
    bad.center_x = center_x;
    bad.center_y = center_y;
    bad.quarantined = 1;
    return bad;
  }

  // Step (d)+(e): 2D DFT of the view and CTF correction.
  util::WallTimer fft_timer;
  em::Image<em::cdouble> spectrum = matcher_.prepare_view(view);
  obs_fft_span_->record(static_cast<std::uint64_t>(fft_timer.seconds() * 1e9));

  ViewResult result;
  result.orientation = initial;
  result.center_x = center_x;
  result.center_y = center_y;

  // The spectrum used for matching carries the current center
  // correction: translate by (-cx, -cy) so the particle sits exactly
  // on the box center, as the cuts assume.  Offsets are in pixels,
  // which are the same physical units on the padded grid.  With a zero
  // offset the prepared spectrum is used directly (no copy); otherwise
  // the phase ramp is written into one reused buffer, on the pixels of
  // the matcher's annulus table only (the Hermitian half of the ring) —
  // distance() reads nothing else of it.
  em::Image<em::cdouble> translated;
  const em::Image<em::cdouble>* centered = &spectrum;
  const auto apply_center = [&](double cx, double cy) {
    // por-lint: allow(float-eq) exact-zero center means "no phase
    // ramp": reuse the untranslated spectrum bit-identically.
    if (cx == 0.0 && cy == 0.0) {
      centered = &spectrum;
    } else {
      const AnnulusTable& ring = matcher_.annulus();
      em::translate_phase_into(translated, spectrum, -cx, -cy,
                               ring.index.data(), ring.size());
      centered = &translated;
    }
  };
  apply_center(center_x, center_y);

  // Steps (k)-(l): center refinement at `level`'s center grid against
  // the cut at the current orientation, re-applying an improved center
  // to the matching spectrum.  Returns how far the center moved.
  const auto center_pass = [&](const SearchLevel& level) {
    util::WallTimer center_timer;
    const std::vector<em::cdouble> best_cut =
        matcher_.annulus_cut(result.orientation);
    const CenterResult center = refine_center(
        matcher_, spectrum, best_cut, result.center_x, result.center_y,
        level.center_step_px, level.center_width, config_.max_slides);
    const double center_moved = std::hypot(center.dx - result.center_x,
                                           center.dy - result.center_y);
    const bool center_changed =
        center.dx != result.center_x || center.dy != result.center_y;
    result.center_x = center.dx;
    result.center_y = center.dy;
    result.center_evals += center.evaluations;
    if (center_changed) apply_center(result.center_x, result.center_y);
    obs_center_span_->record(
        static_cast<std::uint64_t>(center_timer.seconds() * 1e9));
    return center_moved;
  };

  // Step (n): iterate the levels of the multi-resolution schedule.
  const int passes =
      config_.refine_centers ? std::max(1, config_.max_passes_per_level) : 1;
  for (const SearchLevel& level : config_.schedule) {
    if (!searches_angles(level.angular_step_deg, matcher_.padded_r_map())) {
      // Below the resolution floor no step of this level's angular grid
      // moves a matched sample measurably, so the level refines the
      // center only (the orientation, hence the cut, stays fixed), then
      // re-scores the pose it reports.
      if (config_.refine_centers) {
        for (int pass = 0; pass < passes; ++pass) {
          if (cancel != nullptr) cancel->check();
          if (center_pass(level) < 0.25 * level.center_step_px) break;
        }
      }
      result.final_distance = matcher_.distance(*centered, result.orientation);
      ++result.matchings;
      continue;
    }

    for (int pass = 0; pass < passes; ++pass) {
      // Steps (f)-(j): sliding-window angular search at this resolution.
      util::WallTimer refine_timer;
      const SearchDomain domain{result.orientation, level.angular_step_deg,
                                level.angular_width};
      const WindowResult window = sliding_window_search(
          matcher_, *centered, domain, config_.max_slides, cancel);
      const double moved_deg =
          em::geodesic_deg(result.orientation, window.best);
      result.orientation = window.best;
      result.final_distance = window.best_distance;
      result.matchings += window.matchings;
      result.window_slides += window.slides;
      obs_orient_span_->record(
          static_cast<std::uint64_t>(refine_timer.seconds() * 1e9));

      if (!config_.refine_centers) break;

      // Pass boundary: the center search below is the other long leg
      // of a pass, so poll between the two.
      if (cancel != nullptr) cancel->check();

      const double center_moved = center_pass(level);

      // The angular search and the center search are coupled; stop
      // alternating once a pass changes neither appreciably.
      if (moved_deg < 0.25 * level.angular_step_deg &&
          center_moved < 0.25 * level.center_step_px) {
        break;
      }
    }
  }

  // Second quarantine gate: finite pixels can still drive the matching
  // distance non-finite (overflow in a pathological spectrum).  Such a
  // "refined" orientation is meaningless — flag the view instead of
  // letting the non-finite score propagate into run statistics.
  if (!std::isfinite(result.final_distance)) {
    obs_quarantined_->add();
    ViewResult bad;
    bad.orientation = initial;
    bad.center_x = center_x;
    bad.center_y = center_y;
    bad.quarantined = 1;
    return bad;
  }
  return result;
}

void OrientationRefiner::refine_each(std::size_t n, const ViewFetch& fetch,
                                     const ViewDone& done,
                                     serve::Scheduler* scheduler) const {
  const std::size_t l = matcher_.edge();
  const std::size_t group =
      scheduler == nullptr ? 1 : std::max<std::size_t>(scheduler->workers(), 1);
  // One reused view-sized buffer per group slot: pixels stay out of
  // core until their group comes up.
  std::vector<em::Image<double>> views(std::min(group, n),
                                       em::Image<double>(l, l));
  std::vector<ViewStart> starts(views.size());
  std::vector<ViewResult> results(views.size());
  const auto refine_one = [&](std::size_t i) {
    results[i] = refine_view(views[i], starts[i].orientation,
                             starts[i].center_x, starts[i].center_y);
  };
  for (std::size_t lo = 0; lo < n; lo += group) {
    const std::size_t size = std::min(group, n - lo);
    for (std::size_t i = 0; i < size; ++i) {
      starts[i] = fetch(lo + i, views[i].data());
    }
    // Each slot is refined exactly once and writes only results[i], and
    // refine_view is deterministic: the scheduler changes no bit.
    if (scheduler == nullptr) {
      refine_one(0);
    } else {
      scheduler->run(size, refine_one);
    }
    for (std::size_t i = 0; i < size; ++i) done(lo + i, results[i]);
  }
}

std::vector<ViewResult> OrientationRefiner::refine(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& initial_orientations,
    const std::vector<std::pair<double, double>>& initial_centers) const {
  // In-memory views are one more ViewSource, as in parallel_refine.
  stream::MemoryViewSource source(views);
  return refine_stream(source, 0, views.size(), initial_orientations,
                       initial_centers);
}

std::vector<ViewResult> OrientationRefiner::refine_stream(
    stream::ViewSource& source, std::uint64_t first, std::uint64_t count,
    const std::vector<em::Orientation>& initial_orientations,
    const std::vector<std::pair<double, double>>& initial_centers) const {
  if (initial_orientations.size() != count) {
    throw std::invalid_argument("refine: views/orientations size mismatch");
  }
  if (!initial_centers.empty() && initial_centers.size() != count) {
    throw std::invalid_argument("refine: centers size mismatch");
  }
  const std::size_t l = matcher_.edge();
  if (count > 0 && (source.nx() != l || source.ny() != l)) {
    throw std::invalid_argument("refine: view edge mismatch");
  }
  if (first + count > source.count()) {
    throw std::invalid_argument("refine: view range beyond the source");
  }
  std::vector<ViewResult> results(static_cast<std::size_t>(count));
  const auto scheduler = count > 1 ? make_scheduler() : nullptr;
  refine_each(
      results.size(),
      [&](std::size_t k, double* pixels) {
        source.fetch(first + k, pixels);
        if (initial_centers.empty()) return ViewStart{initial_orientations[k]};
        return ViewStart{initial_orientations[k], initial_centers[k].first,
                         initial_centers[k].second};
      },
      [&](std::size_t k, const ViewResult& result) { results[k] = result; },
      scheduler.get());
  return results;
}

}  // namespace por::core
