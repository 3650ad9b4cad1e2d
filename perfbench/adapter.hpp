// perfbench/adapter.hpp
//
// The one seam between the benchmark and the por library.  Every call
// into src/ lives in adapter.cpp, behind the functions and classes
// declared here; main.cpp only orchestrates, times and reports.  When a
// library entry point changes (a driver merges, a thread knob goes
// away), the matching function in adapter.cpp is the only edit.
//
// The only library types that cross this seam are plain data
// containers: images, volumes and Euler-angle orientations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"

namespace perfbench {

using View = por::em::Image<double>;
using Map = por::em::Volume<double>;
using Orientation = por::em::Orientation;

/// Orientation plus particle center (pixels from floor(l/2)).
struct Pose {
  Orientation orientation;
  double cx = 0.0;
  double cy = 0.0;
};

/// A simulated experiment: a phantom (the icosahedral Sindbis-like
/// particle, or an asymmetric one that stays identifiable at small l),
/// its rasterized map, CTF'd noisy views with known poses, and rough
/// initial poses (truth snapped to a coarse angular grid, center 0).
struct DatasetSpec {
  bool asymmetric = false;
  std::size_t l = 64;
  std::size_t views = 64;
  double snr = 2.0;
  double quantize_deg = 3.0;
  double max_shift_px = 1.0;
  std::uint64_t seed = 1;
};

struct Dataset {
  std::size_t l = 0;
  Map map;
  std::vector<View> views;
  std::vector<Pose> truth;
  std::vector<Pose> initial;
};

[[nodiscard]] Dataset simulate(const DatasetSpec& spec);

/// On-disk inputs and outputs of one cycle.
struct CycleFiles {
  std::string map;         ///< reference map (PORM map file)
  std::string stack;       ///< sharded view stack manifest
  std::string orient_in;   ///< initial orientation file
  std::string orient_out;  ///< refined orientation file (written)
  std::string next_map;    ///< reconstructed map (written)
};

/// Writes the map, the sharded stack and the initial orientation file.
void write_inputs(const Dataset& data, const CycleFiles& files);

/// One level of the multi-resolution schedule.
struct Level {
  double step_deg = 1.0;
  int width = 3;
  double center_step_px = 1.0;
  int center_width = 3;
};

/// Refinement settings shared by the cycle driver, the service model
/// and the serial reference refiner.  Empty `levels` means the paper's
/// four-level schedule.
struct RefineSettings {
  std::vector<Level> levels;
  double r_map = 0.0;  ///< unpadded Fourier px
  int passes_per_level = 3;  ///< orientation<->center passes, at most
  int ranks = 1;
};

/// Aggregate of one span series (seconds).
struct SpanStat {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double max_s = 0.0;
};

/// What one rank reported.
struct RankLedger {
  std::map<std::string, SpanStat> spans;  ///< the driver's obs spans
  double recon_busy_s = 0.0;  ///< this rank's time in step C and the FSC
};

/// Refined record of one view.  Every field takes part in equality so
/// that "bitwise identical" covers score and statistics too.
struct ViewOutcome {
  Orientation orientation;
  double cx = 0.0;
  double cy = 0.0;
  double distance = 0.0;
  std::uint64_t matchings = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t center_evals = 0;
  int slides = 0;
  std::uint32_t quarantined = 0;
  bool operator==(const ViewOutcome&) const = default;
};

/// One B<->C cycle: parallel_refine_files (open inputs -> orientations
/// written), then step C (parallel_fourier_reconstruct of the refined
/// stack, map written) and the odd/even FSC.  Phase times are the
/// root rank's wall clock; all ranks meet at a barrier between phases.
struct CycleOutcome {
  double refine_s = 0.0;
  double recon_s = 0.0;
  double fsc_s = 0.0;
  std::vector<ViewOutcome> results;  ///< root's per-view records
  std::vector<Pose> written;         ///< the refined orientation file
  double fsc05_px = 0.0;
  std::uint64_t matchings = 0;
  std::uint64_t slides = 0;
  std::uint64_t vmpi_messages = 0;  ///< whole cycle, all ranks
  std::uint64_t vmpi_bytes = 0;
  std::map<std::string, std::uint64_t> counters;  ///< merged over ranks
  std::map<std::string, double> gauges;           ///< max over ranks
  std::vector<RankLedger> ranks;
};

[[nodiscard]] CycleOutcome run_cycle(const CycleFiles& files,
                                     const RefineSettings& settings);

/// Timed open_view_source + fetch of every view of a stack.
struct ReadSweep {
  double seconds = 0.0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] ReadSweep read_sweep(const std::string& stack);

/// Median nanoseconds of one FourierMatcher::distance over the given
/// (view, orientation) pairs, against a matcher built from `map` with
/// the settings' matching options.
[[nodiscard]] double matcher_kernel_ns(const Map& map,
                                       const RefineSettings& settings,
                                       const std::vector<View>& views,
                                       const std::vector<Orientation>& at,
                                       int reps);

/// Single-threaded OrientationRefiner over one map (the serial
/// reference for the service's bitwise check and busy-time replay).
class SerialRefiner {
 public:
  SerialRefiner(const Map& map, const RefineSettings& settings);
  ~SerialRefiner();
  SerialRefiner(const SerialRefiner&) = delete;
  SerialRefiner& operator=(const SerialRefiner&) = delete;

  [[nodiscard]] ViewOutcome refine(const View& view,
                                   const Orientation& initial) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RefineService with the write-ahead journal in `journal_dir` and a
/// checkpoint rewrite after every refined view (flush_every = 1).
class Service {
 public:
  Service(std::size_t workers, const std::string& journal_dir);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  void register_model(const std::string& name, const Map& map,
                      const RefineSettings& settings);

  struct Submitted {
    bool accepted = false;
    std::uint64_t job = 0;
    std::string admission;
  };
  /// Admission-controlled submit; the submission is durable on return.
  [[nodiscard]] Submitted submit(const std::string& tenant,
                                 const std::string& model,
                                 const std::vector<View>& views,
                                 const std::vector<Orientation>& initial);

  struct Finished {
    bool done = false;  ///< terminal state is kDone
    std::string state;
    std::vector<ViewOutcome> results;
  };
  /// Block until the job is terminal.
  [[nodiscard]] Finished wait(std::uint64_t job);

  [[nodiscard]] std::uint64_t steals() const;
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Size in bytes of the journal record the service writes for a
/// submission of these views.
[[nodiscard]] std::size_t submission_record_bytes(
    const std::vector<View>& views, const std::vector<Orientation>& initial);

/// Per-call seconds of Journal::append(..., durable=true) with a
/// payload of `bytes`, on a fresh journal in `dir`.
[[nodiscard]] std::vector<double> journal_append_durable_s(
    const std::string& dir, std::size_t bytes, int appends);

/// Per-call seconds of a CheckpointWriter flushing after every view
/// record (the service's checkpoint_flush_every = 1 path).
[[nodiscard]] std::vector<double> checkpoint_write_s(const std::string& path,
                                                     int records);

/// Odd/even FSC 0.5 crossing (Fourier px) of a serial reconstruction
/// from CTF-corrected views at the given poses.
[[nodiscard]] double serial_fsc05_px(const std::vector<View>& views,
                                     const std::vector<Pose>& poses);

/// Symmetry-aware geodesic errors (degrees) under the phantom's group
/// (icosahedral, or the trivial group for the asymmetric phantom).
[[nodiscard]] std::vector<double> orientation_errors_deg(
    const std::vector<Orientation>& estimated,
    const std::vector<Orientation>& truth, bool asymmetric);

/// obs: timing spans on/off, and the process-wide registry (the
/// service, its refiners and its journal report there).
void set_tracing(bool on);

struct Counters {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, SpanStat> spans;
};
[[nodiscard]] Counters global_counters();
[[nodiscard]] double global_gauge(const std::string& name);

}  // namespace perfbench
