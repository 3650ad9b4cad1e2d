#include "por/core/pipeline.hpp"

#include <cmath>
#include <stdexcept>

#include "por/obs/registry.hpp"
#include "por/obs/span.hpp"
#include "por/util/log.hpp"

namespace por::core {

RefinementPipeline::RefinementPipeline(const PipelineConfig& config)
    : config_(config) {
  if (config_.cycles < 1) {
    throw std::invalid_argument("RefinementPipeline: cycles must be >= 1");
  }
  if (config_.r_map_growth < 1.0) {
    throw std::invalid_argument("RefinementPipeline: r_map_growth < 1");
  }
}

metrics::FscCurve RefinementPipeline::odd_even_fsc(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers,
    const recon::ReconOptions& options) {
  std::vector<em::Image<double>> odd_views, even_views;
  std::vector<em::Orientation> odd_orients, even_orients;
  std::vector<std::pair<double, double>> odd_centers, even_centers;
  for (std::size_t i = 0; i < views.size(); ++i) {
    auto& v = (i % 2 == 0) ? even_views : odd_views;
    auto& o = (i % 2 == 0) ? even_orients : odd_orients;
    auto& c = (i % 2 == 0) ? even_centers : odd_centers;
    v.push_back(views[i]);
    o.push_back(orientations[i]);
    if (!centers.empty()) c.push_back(centers[i]);
  }
  const em::Volume<double> odd_map =
      recon::fourier_reconstruct(odd_views, odd_orients, odd_centers, options);
  const em::Volume<double> even_map = recon::fourier_reconstruct(
      even_views, even_orients, even_centers, options);
  return metrics::fourier_shell_correlation(odd_map, even_map);
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
  result.map = initial_map.has_value()
                   ? *initial_map
                   : recon::fourier_reconstruct(views, result.orientations,
                                                result.centers, config_.recon);

  double r_map = config_.initial_r_map > 0.0 ? config_.initial_r_map
                                             : std::max(3.0, nyquist / 3.0);

  obs::MetricsRegistry& registry = obs::current_registry();
  obs::SpanSeries& cycle_span = registry.span_series("pipeline.cycle");
  obs::Counter& cycle_counter = registry.counter("pipeline.cycles");
  obs::Gauge& fsc_gauge = registry.gauge("pipeline.fsc_radius");
  obs::Gauge& resolution_gauge = registry.gauge("pipeline.resolution_a");
  obs::Gauge& r_map_gauge = registry.gauge("pipeline.r_map");

  for (int cycle = 1; cycle <= config_.cycles; ++cycle) {
    const obs::SpanTimer cycle_timer(cycle_span);
    cycle_counter.add();
    CycleReport report;
    report.cycle = cycle;
    report.r_map = std::min(r_map, nyquist);
    r_map_gauge.set(report.r_map);

    // ---- Step B: refine orientations against the current map ----
    RefinerConfig rc = config_.refiner;
    rc.match.r_map = report.r_map;
    OrientationRefiner refiner(result.map, rc);
    const std::vector<ViewResult> refined =
        refiner.refine(views, result.orientations, result.centers);
    for (std::size_t i = 0; i < refined.size(); ++i) {
      result.orientations[i] = refined[i].orientation;
      result.centers[i] = {refined[i].center_x, refined[i].center_y};
      report.matchings += refined[i].matchings;
    }

    // ---- Step C: reconstruct from the refined orientations ----
    result.map = recon::fourier_reconstruct(views, result.orientations,
                                            result.centers, config_.recon);

    // ---- Fig. 4 protocol: odd/even FSC ----
    const metrics::FscCurve curve =
        odd_even_fsc(views, result.orientations, result.centers, config_.recon);
    report.fsc_radius = metrics::crossing_radius(curve, 0.5);
    report.resolution_a = metrics::radius_to_resolution_a(
        report.fsc_radius, l, config_.pixel_size_a);
    // Export the per-cycle quality figures; set() keeps the latest
    // cycle's values, which is what a run report should show.
    fsc_gauge.set(report.fsc_radius);
    resolution_gauge.set(report.resolution_a);

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
  return result;
}

}  // namespace por::core
