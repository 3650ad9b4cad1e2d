// Shared driver for the Fig. 5 / Fig. 6 reproductions: the paper's
// correlation-coefficient-vs-resolution comparison (Fig. 4 protocol).
// Two half-set reconstructions are built from the "old" orientations
// and from the orientations refined by the new algorithm; their FSC
// curves are printed side by side with the 0.5 crossings, which is
// exactly the content of the paper's figures (11.2 -> 10.0 A for
// Sindbis, 8.6 -> 8.0 A for reo).
#pragma once

#include <cstdio>

#include "bench_helpers.hpp"
#include "por/core/pipeline.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/util/table.hpp"

namespace por::bench {

inline int run_fsc_figure(const char* title, Workload& w,
                          double pixel_size_a) {
  std::printf("%s\n", title);
  std::printf("workload: l=%zu, m=%zu views, snr per view as generated; "
              "'old' = orientations on a coarse grid (the starting point the\n"
              "paper inherited from symmetry-exploiting programs), 'new' = "
              "after sliding-window multi-resolution refinement.\n\n",
              w.l, w.views.size());

  // Refine with the full pipeline (2 cycles against the evolving map).
  core::PipelineConfig config;
  config.cycles = 3;
  config.refiner.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                             core::SearchLevel{0.25, 5, 0.25, 3},
                             core::SearchLevel{0.05, 5, 0.05, 3}};
  config.refiner.refine_centers = false;
  config.initial_r_map = static_cast<double>(w.l) / 4.0;
  config.pixel_size_a = pixel_size_a;
  const core::RefinementPipeline pipeline(config);
  const core::PipelineResult result = pipeline.run(w.views, w.initial);

  const core::Reconstruction old_step_c = reconstruct(w, w.initial);
  const core::Reconstruction new_step_c =
      reconstruct(w, result.orientations, result.centers);
  const metrics::FscCurve& old_curve = old_step_c.fsc;
  const metrics::FscCurve& new_curve = new_step_c.fsc;

  util::Table table({"shell radius (px)", "resolution (A)", "cc old",
                     "cc new"});
  for (std::size_t s = 1; s < old_curve.correlation.size(); ++s) {
    table.add_row({util::fmt(old_curve.shell_radius[s], 1),
                   util::fmt(metrics::radius_to_resolution_a(
                                 old_curve.shell_radius[s], w.l, pixel_size_a),
                             1),
                   util::fmt(old_curve.correlation[s], 3),
                   util::fmt(new_curve.correlation[s], 3)});
  }
  std::printf("%s\n", table.render().c_str());

  const double old_cross = old_step_c.fsc05_px;
  const double new_cross = new_step_c.fsc05_px;
  const double old_res =
      metrics::radius_to_resolution_a(old_cross, w.l, pixel_size_a);
  const double new_res =
      metrics::radius_to_resolution_a(new_cross, w.l, pixel_size_a);
  std::printf("FSC 0.5 crossing:  old %.2f px -> %.1f A,  new %.2f px -> "
              "%.1f A\n",
              old_cross, old_res, new_cross, new_res);

  const auto icos = em::SymmetryGroup::icosahedral();
  const auto old_err = metrics::orientation_error_stats(w.initial, w.truth, icos);
  const auto new_err =
      metrics::orientation_error_stats(result.orientations, w.truth, icos);
  std::printf("orientation error vs ground truth: old mean %.3f deg -> new "
              "mean %.3f deg\n",
              old_err.mean, new_err.mean);

  const bool shape_holds = new_cross >= old_cross - 1e-9 &&
                           new_err.mean <= old_err.mean;
  std::printf("paper shape (new method reaches >= resolution of old, with "
              "better orientations): %s\n\n",
              shape_holds ? "REPRODUCED" : "NOT reproduced");
  return shape_holds ? 0 : 1;
}

}  // namespace por::bench
