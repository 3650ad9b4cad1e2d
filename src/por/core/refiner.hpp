// por/core/refiner.hpp
//
// The sliding-window multi-resolution orientation refinement algorithm
// (paper §4, steps a-o) for one node: given the current density map
// and a set of experimental views with rough initial orientations,
// produce refined orientations and centers.
//
// The distributed-memory SPMD driver that wraps this with the paper's
// steps (a)-(c) and (m)-(o) lives in por/core/parallel_refiner.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "por/core/center_refine.hpp"
#include "por/core/matcher.hpp"
#include "por/core/search_domain.hpp"
#include "por/core/sliding_window.hpp"
#include "por/resilience/retry.hpp"

namespace por::resilience {
struct CheckpointRecord;
}  // namespace por::resilience

namespace por::serve {
class Scheduler;
}  // namespace por::serve

namespace por::stream {
class ViewSource;
}  // namespace por::stream

namespace por::core {

/// Fault-tolerance knobs for the refinement drivers (DESIGN.md §10).
/// The defaults reproduce the pre-resilience behavior exactly: no
/// checkpoint, no communication deadline, no retries.
struct ResilienceOptions {
  /// Master-side checkpoint log ("PORC"): every refined view is
  /// appended (atomic temp+rename, CRC-tagged) so an interrupted run
  /// can restart without repeating finished work.  Empty = disabled.
  std::string checkpoint_path;
  /// Resume from `checkpoint_path`: views already recorded there are
  /// restored and only the remainder is distributed and refined.
  bool resume = false;
  /// Records buffered between atomic checkpoint rewrites.
  std::size_t checkpoint_flush_every = 8;
  /// Master-side failure detector: if no worker message (result /
  /// heartbeat / done) arrives for this long while views are still
  /// outstanding, silent ranks holding work are declared dead and
  /// their unfinished views are reassigned.  The default is generous
  /// next to per-view refinement times; tests shrink it.
  std::chrono::milliseconds heartbeat_timeout{2000};
  /// Default deadline installed on every rank's Comm for the duration
  /// of the call: blocking receives (and thus collectives) throw
  /// vmpi::CommTimeout instead of hanging forever on a dead peer.
  /// Zero = block forever (the pre-resilience behavior).
  std::chrono::milliseconds comm_deadline{0};
  /// Retry policy for the file driver's reads (map, stack,
  /// orientations).  max_attempts = 1 disables retries.
  resilience::RetryPolicy io_retry{};
};

/// Out-of-core streaming knobs (DESIGN.md §14): how the drivers read
/// view stacks too large for memory.  Results are identical to
/// in-core at any setting.
struct StreamOptions {
  /// Cap on resident (mmapped) shard bytes, in MiB; 0 = unlimited.
  /// The "Sindbis on a 2 GB box" knob.
  std::size_t max_resident_mb = 0;
};

/// Full refinement configuration.
struct RefinerConfig {
  std::vector<SearchLevel> schedule;  ///< multi-resolution levels, coarse->fine
  MatchOptions match;                 ///< pad / r_map / weighting
  int max_slides = 8;                 ///< sliding-window cap per level
  bool refine_centers = true;         ///< run step (k) at each level
  /// Angular search and center refinement are coupled (a wrong center
  /// skews the angular minimum and vice versa); each level alternates
  /// the two until they agree, up to this many passes.
  int max_passes_per_level = 3;
  std::optional<em::CtfParams> ctf;   ///< CTF of the views' micrograph
  em::CtfCorrection ctf_correction = em::CtfCorrection::kPhaseFlip;
  double wiener_snr = 10.0;
  ResilienceOptions resilience;       ///< checkpoint / recovery / retry
  StreamOptions stream;               ///< out-of-core stack streaming
  /// Shared-memory workers per rank for the per-view loop
  /// (OrientationRefiner::refine_each): 1 = views one at a time inline
  /// (the historical behavior), N > 1 = groups of N on the por::serve
  /// Scheduler's worker pool, 0 = hardware_concurrency; negative values
  /// are rejected by the OrientationRefiner constructor.  Per-view
  /// refinement is deterministic and views are independent, so results
  /// are bitwise-identical at any worker count.
  int refine_workers = 1;

  RefinerConfig() : schedule(paper_schedule()) {}

  /// The match options with the CTF settings folded in (the matcher
  /// needs them to keep view and cut amplitudes comparable).
  [[nodiscard]] MatchOptions matcher_options() const {
    MatchOptions merged = match;
    if (ctf && !merged.ctf) {
      merged.ctf = ctf;
      merged.ctf_correction = ctf_correction;
      merged.wiener_snr = wiener_snr;
    }
    return merged;
  }
};

/// Refined parameters of one view (the paper's O_refined record:
/// angles + center).
struct ViewResult {
  em::Orientation orientation;
  double center_x = 0.0;
  double center_y = 0.0;
  double final_distance = 0.0;
  std::uint64_t matchings = 0;       ///< angular matchings spent
  /// Always 0: the window search's score cache is gone.  The field
  /// keeps the checkpoint record's layout (a restored record from an
  /// older run may carry its count).
  std::uint64_t cache_hits = 0;
  std::uint64_t center_evals = 0;    ///< center positions tried
  int window_slides = 0;             ///< total slides over all levels
  /// Non-zero when the view was quarantined (non-finite pixels or a
  /// non-finite match score): the record carries the *initial*
  /// orientation/center untouched and the view must be excluded from
  /// reconstruction (see por/resilience/quarantine.hpp).
  std::uint32_t quarantined = 0;
};

/// The checkpoint ("PORC") record of view `index`, and back: the one
/// ViewResult <-> CheckpointRecord conversion, field for field.
[[nodiscard]] resilience::CheckpointRecord to_record(std::uint64_t index,
                                                     const ViewResult& result);
[[nodiscard]] ViewResult from_record(const resilience::CheckpointRecord& record);

/// Initial parameters of one view: the rough orientation and center
/// its refinement starts from.  Also the record the parallel driver's
/// master ships with each view, so its layout is part of the wire
/// protocol.
struct ViewStart {
  em::Orientation orientation;
  double center_x = 0.0;
  double center_y = 0.0;
};

/// Orientation refinement against a fixed density map.
class OrientationRefiner {
 public:
  /// Builds the padded centered 3D DFT of `density_map` (step a, serial).
  OrientationRefiner(const em::Volume<double>& density_map,
                     const RefinerConfig& config);

  /// Adopts a matcher whose spectrum was produced elsewhere (e.g. by
  /// the slab-parallel 3D DFT).
  OrientationRefiner(FourierMatcher matcher, const RefinerConfig& config);

  /// Steps (d)-(l) for one view.  A level whose angular step falls
  /// below the resolution floor at this matcher's radius
  /// (searches_angles, search_domain.hpp) refines the center only.
  /// `cancel`, when non-null, is polled
  /// cooperatively between passes and inside sliding_window_search
  /// (por/core/cancel.hpp); a fired token unwinds with core::Cancelled
  /// — the serving layer maps it to the kCancelled / kTimedOut job
  /// states.  The refiner is shared across jobs, so the token is a
  /// per-call parameter, not configuration.
  [[nodiscard]] ViewResult refine_view(const em::Image<double>& view,
                                       const em::Orientation& initial,
                                       double center_x = 0.0,
                                       double center_y = 0.0,
                                       const CancelToken* cancel =
                                           nullptr) const;

  /// Fills view k (edge x edge doubles, row-major; edge =
  /// matcher().edge()) and returns its initial parameters.
  using ViewFetch = std::function<ViewStart(std::size_t k, double* pixels)>;
  /// Receives the refined view k.
  using ViewDone = std::function<void(std::size_t k, const ViewResult& result)>;

  /// Steps (d)-(l) over views [0, n): the one per-view loop every
  /// driver runs.  For each k, `fetch(k, pixels)` fills the view, the
  /// view is refined from the parameters fetch returned, and
  /// `done(k, result)` takes the result.  Both callbacks run on the
  /// calling thread in index order.  With a null `scheduler` views go
  /// one at a time inline; otherwise in groups of scheduler->workers(),
  /// fetched, refined on the scheduler, then handed to `done`.  The
  /// results are bitwise-identical either way.  A callback's exception
  /// unwinds the loop.
  void refine_each(std::size_t n, const ViewFetch& fetch, const ViewDone& done,
                   serve::Scheduler* scheduler) const;

  /// refine_stream over in-memory views (a stream::MemoryViewSource);
  /// `initial_centers` empty = all zero.
  [[nodiscard]] std::vector<ViewResult> refine(
      const std::vector<em::Image<double>>& views,
      const std::vector<em::Orientation>& initial_orientations,
      const std::vector<std::pair<double, double>>& initial_centers = {}) const;

  /// refine_each over views [first, first + count) of a ViewSource,
  /// each fetched by refine_each's fetch callback — the whole stack is
  /// never resident — on make_scheduler() when there is more than one
  /// view.  `initial_orientations[i]` /
  /// `initial_centers[i]` describe view `first + i`.
  [[nodiscard]] std::vector<ViewResult> refine_stream(
      stream::ViewSource& source, std::uint64_t first, std::uint64_t count,
      const std::vector<em::Orientation>& initial_orientations,
      const std::vector<std::pair<double, double>>& initial_centers = {}) const;

  [[nodiscard]] const FourierMatcher& matcher() const { return matcher_; }
  [[nodiscard]] const RefinerConfig& config() const { return config_; }

  /// The scheduler refine_each runs on at config().refine_workers
  /// (0 = hardware concurrency), or null at 1: views inline.
  [[nodiscard]] std::unique_ptr<serve::Scheduler> make_scheduler() const;

 private:
  /// Reject invalid configuration, then resolve observability handles
  /// against the registry current on the constructing thread (shared by
  /// both constructors).
  void init();

  FourierMatcher matcher_;
  RefinerConfig config_;

  // The timing record of steps (d)-(l): one "step.<name>" series per
  // step of the paper's Tables 1/2 plus a whole-view series.  Reports
  // read them back from a registry snapshot.
  obs::SpanSeries* obs_view_span_ = nullptr;
  obs::SpanSeries* obs_fft_span_ = nullptr;
  obs::SpanSeries* obs_orient_span_ = nullptr;
  obs::SpanSeries* obs_center_span_ = nullptr;
  obs::Counter* obs_quarantined_ = nullptr;  ///< resilience.views.quarantined
};

}  // namespace por::core
