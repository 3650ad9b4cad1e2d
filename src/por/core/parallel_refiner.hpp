// por/core/parallel_refiner.hpp
//
// The distributed-memory orientation refinement program (paper §4,
// steps a-o, complete):
//
//   a. slab-parallel 3D DFT of the density map, replicated everywhere
//   b. the master distributes the views in blocks of m/P
//   c. the master distributes the matching initial orientations
//   d-l. every rank refines its own views (embarrassingly parallel)
//        through OrientationRefiner::refine_each
//   m. barrier
//   n. (the multi-resolution loop is inside the per-view refiner)
//   o. the master collects and writes the refined orientation file
//
// Per-step wall times are recorded as "step.<name>" spans under the
// step names of the paper's Tables 1 and 2 ("3D DFT", "Read image",
// "FFT analysis", "Orientation refinement", "Center refinement") in
// each rank's snapshot of ParallelRefineReport::obs; the table value is
// the max over ranks.
//
// Resilience (DESIGN.md §10): steps (b)-(l) run as a master-worker
// protocol rather than a fire-and-forget block split.  Each refined
// view streams back to the master as its own message, doubling as a
// heartbeat; when every rank still holding work stays silent for
// config.resilience.heartbeat_timeout the silent ranks are declared
// dead and their unfinished views are redistributed to idle live
// workers (or refined by the master itself).  Per-view refinement is
// deterministic, so the recovered run's orientation file is
// bitwise-identical to a fault-free one.  With
// config.resilience.checkpoint_path set, the master appends each
// refined view to an atomic CRC-tagged checkpoint; with .resume it
// restores finished views from that file and distributes only the
// remainder.
#pragma once

#include <string>
#include <vector>

#include "por/core/refiner.hpp"
#include "por/obs/run_report.hpp"
#include "por/vmpi/comm.hpp"

namespace por::core {

/// Result of a distributed refinement run.
struct ParallelRefineReport {
  /// Refined records for every view, in global view order.  Complete
  /// on the root rank; empty on the others.
  std::vector<ViewResult> results;
  /// Matching operations summed over ranks (valid on every rank).
  std::uint64_t total_matchings = 0;
  /// Window slides summed over ranks (valid on every rank).
  std::uint64_t total_slides = 0;
  /// Cross-rank metrics aggregation: every rank runs its refinement
  /// under a rank-local obs::MetricsRegistry; the per-rank snapshots
  /// (matcher counters, step spans, FFT counts, vmpi traffic) are
  /// gathered and merged here.  Complete on the root rank; non-root
  /// ranks hold only their own snapshot.
  obs::RunReport obs;

  // ---- resilience outcome (valid on the root rank only) -----------------
  /// Views restored from the checkpoint instead of being refined.
  std::uint64_t restored_views = 0;
  /// Views taken away from a silent rank and refined elsewhere.
  std::uint64_t reassigned_views = 0;
  /// Worker ranks the failure detector declared dead this run.
  std::uint64_t dead_ranks = 0;
  /// Views quarantined by the per-view degradation path (their records
  /// carry the initial parameters and quarantined != 0).
  std::uint64_t quarantined_views = 0;
};

/// In-memory SPMD driver: the root rank supplies the map, all views
/// and all initial orientations; other ranks pass empty containers.
/// `l` is the map/view edge; l * config.match.pad must be divisible by
/// comm.size().  Both drivers check root's inputs (reads, counts, map
/// and view edges) before the first collective and send the verdict
/// on one: on failure root rethrows its own exception (for bad edges
/// or counts std::invalid_argument) and every other rank throws
/// std::runtime_error, so no rank is left waiting; vmpi::run, which
/// rethrows the lowest-ranked error, hands the caller root's.
[[nodiscard]] ParallelRefineReport parallel_refine(
    vmpi::Comm& comm, const em::Volume<double>& map_on_root, std::size_t l,
    const std::vector<em::Image<double>>& views_on_root,
    const std::vector<em::Orientation>& initial_on_root,
    const std::vector<std::pair<double, double>>& centers_on_root,
    const RefinerConfig& config);

/// File-based SPMD driver covering the paper's I/O model: the master
/// reads the map and the orientation file, *streams* the view stack in
/// ranged groups (paper step b — the stack is never loaded whole), and
/// writes the refined orientation file at the end.  `stack_path` is a
/// sharded-stack manifest, consumed through a stream::ViewSource with
/// config.stream's residency cap; the results are
/// bitwise-identical to parallel_refine's.  The master's working set is
/// bounded by config.stream.max_resident_mb instead of the stack size.
[[nodiscard]] ParallelRefineReport parallel_refine_files(
    vmpi::Comm& comm, const std::string& map_path,
    const std::string& stack_path, const std::string& orientations_in_path,
    const std::string& orientations_out_path, const RefinerConfig& config);

}  // namespace por::core
