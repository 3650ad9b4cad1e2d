#include "por/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "por/core/parallel_refiner.hpp"
#include "por/em/projection.hpp"
#include "por/io/master_io.hpp"
#include "por/recon/parallel_recon.hpp"
#include "por/resilience/quarantine.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/log.hpp"
#include "por/vmpi/runtime.hpp"

namespace por::core {

namespace {

constexpr vmpi::Tag kReconViewsTag = 400;

/// One rank's views of a half set or of the full set, with their poses.
struct ReconSet {
  std::vector<em::Image<double>> views;
  std::vector<em::Orientation> orientations;
  std::vector<std::pair<double, double>> centers;

  void add(em::Image<double> view, const ViewResult& pose) {
    views.push_back(std::move(view));
    orientations.push_back(pose.orientation);
    centers.emplace_back(pose.center_x, pose.center_y);
  }
};

}  // namespace

Reconstruction reconstruct_refined(vmpi::Comm& comm, std::size_t l,
                                   stream::ViewSource* source_on_root,
                                   const std::vector<ViewResult>& poses_on_root,
                                   const RefinerConfig& config,
                                   const recon::ReconOptions& recon_options) {
  // A rejected root input goes out as no records, which leaves both
  // half sets empty on every rank.
  const bool root_ok =
      source_on_root != nullptr &&
      poses_on_root.size() == source_on_root->count() &&
      (poses_on_root.empty() ||
       (source_on_root->nx() == l && source_on_root->ny() == l));
  std::vector<ViewResult> poses;
  if (comm.is_root() && root_ok) poses = poses_on_root;
  comm.bcast(0, poses);

  std::vector<std::size_t> kept;
  std::size_t kept_even = 0;
  for (std::size_t i = 0; i < poses.size(); ++i) {
    if (poses[i].quarantined != 0) continue;
    kept.push_back(i);
    if (i % 2 == 0) ++kept_even;
  }
  if (kept_even == 0 || kept_even == kept.size()) {
    throw std::invalid_argument(
        comm.is_root() && !root_ok
            ? "reconstruct_refined: root needs a source of l x l views and "
              "one record per view"
            : "reconstruct_refined: a half set has no view left");
  }

  // Root reads each rank's block of kept views and ships it, its own
  // block last.
  const std::size_t pixels = l * l;
  const int ranks = comm.size();
  std::vector<double> flat;
  if (comm.is_root()) {
    for (int r = ranks - 1; r >= 0; --r) {
      const std::size_t rb = io::block_begin(kept.size(), ranks, r);
      const std::size_t rs = io::block_share(kept.size(), ranks, r);
      std::vector<double> block(rs * pixels);
      for (std::size_t k = 0; k < rs; ++k) {
        source_on_root->fetch(kept[rb + k], block.data() + k * pixels);
      }
      if (r == 0) {
        flat = std::move(block);
      } else {
        comm.send(r, kReconViewsTag, block);
      }
    }
  } else {
    flat = comm.recv<double>(0, kReconViewsTag);
  }

  // Step (e) as step B applies it before matching, here on the view.
  const MatchOptions match = config.matcher_options();
  const std::size_t begin = io::block_begin(kept.size(), ranks, comm.rank());
  ReconSet all, odd, even;
  for (std::size_t k = 0; k * pixels < flat.size(); ++k) {
    em::Image<double> view(l, l);
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(k * pixels),
                pixels, view.storage().begin());
    if (match.ctf) {
      em::Image<em::cdouble> spectrum = em::centered_fft2(view);
      em::correct_ctf(spectrum, *match.ctf, match.ctf_correction,
                      match.wiener_snr);
      view = em::centered_ifft2(spectrum);
    }
    all.add(std::move(view), poses[kept[begin + k]]);
  }
  flat = {};

  const auto reconstruct = [&](const ReconSet& set) {
    return recon::parallel_fourier_reconstruct(
        comm, l, set.views, set.orientations, set.centers, recon_options);
  };
  Reconstruction out;
  out.map = reconstruct(all);
  for (std::size_t k = 0; k < all.views.size(); ++k) {
    const std::size_t index = kept[begin + k];
    (index % 2 == 0 ? even : odd).add(std::move(all.views[k]), poses[index]);
  }
  const em::Volume<double> odd_map = reconstruct(odd);
  const em::Volume<double> even_map = reconstruct(even);
  if (comm.is_root()) {
    out.fsc = metrics::fourier_shell_correlation(odd_map, even_map);
    out.fsc05_px = metrics::crossing_radius(out.fsc, 0.5);
  }
  return out;
}

RefinementPipeline::RefinementPipeline(const PipelineConfig& config)
    : config_(config) {
  if (config_.cycles < 1) {
    throw std::invalid_argument("RefinementPipeline: cycles must be >= 1");
  }
  if (config_.r_map_growth < 1.0) {
    throw std::invalid_argument("RefinementPipeline: r_map_growth < 1");
  }
}

PipelineResult RefinementPipeline::run(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& initial_orientations,
    const std::optional<em::Volume<double>>& initial_map,
    const std::optional<GroundTruth>& truth) const {
  if (views.empty() || views.size() != initial_orientations.size()) {
    throw std::invalid_argument("pipeline: bad views/orientations");
  }
  const std::size_t l = views.front().nx();
  const double nyquist = static_cast<double>(l) / 2.0 - 1.0;

  PipelineResult result;
  result.orientations = initial_orientations;
  result.centers.assign(views.size(), {0.0, 0.0});

  double r_map = config_.initial_r_map > 0.0 ? config_.initial_r_map
                                             : std::max(3.0, nyquist / 3.0);

  vmpi::run(1, [&](vmpi::Comm& comm) {
    stream::MemoryViewSource source(views);
    if (initial_map.has_value()) {
      result.map = *initial_map;
    } else {
      std::vector<ViewResult> initial(views.size());
      for (std::size_t i = 0; i < views.size(); ++i) {
        initial[i].orientation = initial_orientations[i];
        initial[i].quarantined =
            !resilience::all_finite(views[i].data(), views[i].size());
      }
      result.map = reconstruct_refined(comm, l, &source, initial,
                                       config_.refiner, config_.recon)
                       .map;
    }

    for (int cycle = 1; cycle <= config_.cycles; ++cycle) {
      CycleReport report;
      report.cycle = cycle;
      report.r_map = std::min(r_map, nyquist);

      // ---- Step B: refine orientations against the current map ----
      RefinerConfig rc = config_.refiner;
      rc.match.r_map = report.r_map;
      const ParallelRefineReport refined = parallel_refine(
          comm, result.map, l, views, result.orientations, result.centers, rc);
      for (std::size_t i = 0; i < refined.results.size(); ++i) {
        result.orientations[i] = refined.results[i].orientation;
        result.centers[i] = {refined.results[i].center_x,
                             refined.results[i].center_y};
      }
      report.matchings = refined.total_matchings;

      // ---- Step C and the Fig. 4 odd/even FSC ----
      Reconstruction next = reconstruct_refined(comm, l, &source,
                                                refined.results, rc,
                                                config_.recon);
      result.map = std::move(next.map);
      report.fsc_radius = next.fsc05_px;
      report.resolution_a = metrics::radius_to_resolution_a(
          report.fsc_radius, l, config_.pixel_size_a);

      if (truth.has_value()) {
        report.orientation_error = metrics::orientation_error_stats(
            result.orientations, truth->orientations, truth->symmetry);
        if (!truth->centers.empty()) {
          double sum = 0.0;
          for (std::size_t i = 0; i < result.centers.size(); ++i) {
            const double dx = result.centers[i].first - truth->centers[i].first;
            const double dy =
                result.centers[i].second - truth->centers[i].second;
            sum += std::hypot(dx, dy);
          }
          report.mean_center_error_px =
              sum / static_cast<double>(result.centers.size());
        }
      }

      util::log_info("pipeline cycle ", cycle, ": r_map=", report.r_map,
                     " fsc0.5 radius=", report.fsc_radius,
                     " resolution=", report.resolution_a, " A");
      result.cycles.push_back(std::move(report));

      // Raise the working resolution toward Nyquist for the next cycle.
      r_map = std::min(nyquist, r_map * config_.r_map_growth);
    }
  });
  return result;
}

}  // namespace por::core
