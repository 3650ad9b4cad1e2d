// fig23_density_maps — reproduction of the paper's Figs. 2 and 3:
// cross-sections and 3D density of the Sindbis map reconstructed from
// the old orientations vs the refined ones.  The paper could only show
// pictures ("high magnification views do reveal more details in the
// new density map"); with a phantom we can also QUANTIFY the claim:
// per-voxel error and correlation against the ground-truth density,
// plus ASCII central cross-sections for visual comparison.

#include <cmath>
#include <cstdio>

#include "bench_helpers.hpp"
#include "por/core/pipeline.hpp"
#include "por/metrics/align.hpp"
#include "por/metrics/fsc.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/util/table.hpp"

using namespace por;

namespace {

/// Render the central z-section as ASCII art (darker = denser).
void print_cross_section(const char* label, const em::Volume<double>& map) {
  static const char kRamp[] = " .:-=+*#%@";
  const std::size_t l = map.nx();
  double lo = 1e300, hi = -1e300;
  for (double v : map.storage()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::printf("%s (central z-section, %zux%zu)\n", label, l, l);
  const std::size_t z = l / 2;
  for (std::size_t y = 0; y < l; y += 2) {  // halve rows: terminal aspect
    for (std::size_t x = 0; x < l; ++x) {
      const double t = (map(z, y, x) - lo) / (hi - lo + 1e-300);
      const int idx = std::min<int>(9, static_cast<int>(t * 10.0));
      std::putchar(kRamp[idx]);
    }
    std::putchar('\n');
  }
  std::putchar('\n');
}

double rms_error(const em::Volume<double>& a, const em::Volume<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a.storage()[i] - b.storage()[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace

int main() {
  std::printf("Figs. 2/3 (reproduction): density maps from old vs refined "
              "orientations, Sindbis-like particle\n\n");
  bench::WorkloadSpec spec;
  spec.l = 48;
  spec.view_count = 72;
  spec.snr = 6.0;
  spec.quantize_deg = 9.0;  // coarse legacy grid, as in the fig5 bench
  spec.seed = 2323;
  bench::Workload w = bench::sindbis_workload(spec);

  // Refine.
  core::PipelineConfig config;
  config.cycles = 3;
  config.refiner.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                             core::SearchLevel{0.25, 5, 0.25, 3},
                             core::SearchLevel{0.05, 5, 0.05, 3}};
  config.refiner.refine_centers = false;
  config.initial_r_map = static_cast<double>(w.l) / 4.0;
  const core::RefinementPipeline pipeline(config);
  const core::PipelineResult refined = pipeline.run(w.views, w.initial);

  const em::Volume<double> old_map = bench::reconstruct(w, w.initial).map;
  const em::Volume<double>& new_map = refined.map;

  print_cross_section("ground truth", w.map);
  print_cross_section("old orientations", old_map);
  print_cross_section("refined orientations", new_map);

  // Refinement fixes only RELATIVE orientations; the absolute frame can
  // drift by a degree or two, so both maps are rotationally aligned to
  // the ground truth before scoring (the paper's figures were likewise
  // displayed in a common frame).
  const double cc_old =
      metrics::aligned_volume_correlation(old_map, w.map, 6.0);
  const double cc_new =
      metrics::aligned_volume_correlation(new_map, w.map, 6.0);

  const auto icos = em::SymmetryGroup::icosahedral();
  util::Table table({"map", "aligned cc vs truth", "rms voxel error",
                     "orientation err mean (deg)"});
  table.add_row({"old", util::fmt(cc_old, 4),
                 util::fmt(rms_error(old_map, w.map), 4),
                 util::fmt(metrics::orientation_error_stats(w.initial, w.truth,
                                                            icos)
                               .mean,
                           3)});
  table.add_row(
      {"new", util::fmt(cc_new, 4), util::fmt(rms_error(new_map, w.map), 4),
       util::fmt(metrics::orientation_error_stats(refined.orientations,
                                                  w.truth, icos)
                     .mean,
                 3)});
  std::printf("%s\n", table.render().c_str());

  const bool better = cc_new >= cc_old;
  std::printf("paper shape (refined map shows more true detail): %s\n",
              better ? "REPRODUCED" : "NOT reproduced");
  return better ? 0 : 1;
}
