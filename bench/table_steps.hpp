// Shared driver for the Table 1 / Table 2 reproductions: run the four
// angular-resolution stages of the refinement (1, 0.1, 0.01, 0.002
// degrees with the paper's per-level search ranges 3, 9, 9, 10) as
// separate distributed passes, feeding orientations forward, and print
// the per-step wall times in the paper's row layout.  A stage whose
// angular step falls below the resolution floor at this box's matching
// radius (core::searches_angles) refines the center only; the "Mode"
// row says which stages did.  "Matching operations" counts distance()
// calls: a window search descends its grid instead of scoring all w^3
// candidates, so a stage spends far fewer than w^3 per view and round.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_helpers.hpp"
#include "por/core/parallel_refiner.hpp"
#include "por/util/table.hpp"
#include "por/util/timer.hpp"
#include "por/vmpi/runtime.hpp"

namespace por::bench {

inline int run_step_table(const char* title, Workload& w, int ranks) {
  std::printf("%s\n", title);
  std::printf("workload: l=%zu (paper: 331-511), m=%zu views (paper: "
              "4,422-7,917), P=%d vmpi ranks on one physical core.\n"
              "Absolute seconds are not comparable to the 2003 SP2; the\n"
              "row structure, the >=99%% refinement share and the sliding-\n"
              "window activations are the reproduced quantities.\n\n",
              w.l, w.views.size(), ranks);

  const std::vector<core::SearchLevel> schedule = core::paper_schedule();

  struct StageRow {
    double dft = 0.0, read = 0.0, fft = 0.0, refine = 0.0, center = 0.0;
    double total = 0.0;
    std::uint64_t matchings = 0, slides = 0, center_evals = 0;
  };
  std::vector<StageRow> stages;

  // Every stage uses the same matching radius: l/2 - 4 unpadded px.
  core::MatchOptions match;
  match.r_map = static_cast<double>(w.l) / 2.0 - 4.0;
  const double r_pad = core::FourierMatcher::padded_matching_radius(w.l, match);

  std::vector<em::Orientation> current = w.initial;
  std::vector<std::pair<double, double>> centers(w.views.size(), {0.0, 0.0});

  for (const core::SearchLevel& level : schedule) {
    core::RefinerConfig config;
    config.schedule = {level};
    config.match = match;
    config.refine_centers = true;
    config.max_passes_per_level = 1;  // one pass per stage, as tabulated

    core::ParallelRefineReport report;
    std::vector<core::ViewResult> results;
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      auto r = core::parallel_refine(comm, w.map, w.l, w.views, current,
                                     centers, config);
      if (comm.is_root()) {
        results = std::move(r.results);
        report = std::move(r);
      }
    });
    std::uint64_t center_evals = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      current[i] = results[i].orientation;
      centers[i] = {results[i].center_x, results[i].center_y};
      center_evals += results[i].center_evals;
    }

    // Seconds in span "step.<name>", max over ranks: the slowest rank
    // sets the wall clock of the step.
    const auto step_s = [&](const std::string& name) {
      double slowest = 0.0;
      for (const obs::Snapshot& rank : report.obs.per_rank) {
        const auto it = rank.spans.find("step." + name);
        if (it == rank.spans.end()) continue;
        slowest = std::max(slowest,
                           static_cast<double>(it->second.total_ns) * 1e-9);
      }
      return slowest;
    };
    StageRow row;
    row.dft = step_s("3D DFT");
    row.read = step_s("Read image");
    row.fft = step_s("FFT analysis");
    row.refine = step_s("Orientation refinement");
    row.center = step_s("Center refinement");
    row.total = row.dft + row.read + row.fft + row.refine + row.center;
    row.matchings = report.total_matchings;
    row.slides = report.total_slides;
    row.center_evals = center_evals;
    stages.push_back(row);
  }

  // ---- the paper's table layout ----
  util::Table table({"Angular resolution (deg)", "1", "0.1", "0.01", "0.002"});
  auto time_row = [&](const char* name, double StageRow::* field) {
    std::vector<std::string> cells{name};
    for (const auto& s : stages) cells.push_back(util::fmt(s.*field, 2));
    table.add_row(cells);
  };
  {
    std::vector<std::string> cells{"Search range"};
    for (const auto& level : schedule) {
      cells.push_back(std::to_string(level.angular_width));
    }
    table.add_row(cells);
    cells = {"Mode (step x r_pad, px)"};
    for (const auto& level : schedule) {
      const double step = level.angular_step_deg;
      cells.push_back(
          (core::searches_angles(step, r_pad) ? "angular " : "center-only ") +
          util::fmt(core::angular_step_px(step, r_pad), 4));
    }
    table.add_row(cells);
  }
  time_row("3D DFT (s)", &StageRow::dft);
  time_row("Read image (s)", &StageRow::read);
  time_row("FFT analysis (s)", &StageRow::fft);
  time_row("Orientation refinement (s)", &StageRow::refine);
  time_row("Center refinement (s)", &StageRow::center);
  time_row("Total time (s)", &StageRow::total);
  {
    std::vector<std::string> cells{"Matching operations"};
    for (const auto& s : stages) {
      cells.push_back(util::fmt_grouped(static_cast<long long>(s.matchings)));
    }
    table.add_row(cells);
    cells = {"Center evaluations"};
    for (const auto& s : stages) {
      cells.push_back(
          util::fmt_grouped(static_cast<long long>(s.center_evals)));
    }
    table.add_row(cells);
    cells = {"Window slides"};
    for (const auto& s : stages) {
      cells.push_back(util::fmt_grouped(static_cast<long long>(s.slides)));
    }
    table.add_row(cells);
    cells = {"Effective search range"};
    for (std::size_t k = 0; k < stages.size(); ++k) {
      if (!core::searches_angles(schedule[k].angular_step_deg, r_pad)) {
        cells.push_back("-");  // a center-only stage has no window
        continue;
      }
      // Paper: "at 0.01 instead of 9 matchings (search range) we needed
      // 15" — the window widened by (width-1)/2 per slide on the worst
      // view; report the mean-widened span.
      const double per_view_slides =
          static_cast<double>(stages[k].slides) /
          static_cast<double>(w.views.size());
      const double span = schedule[k].angular_width +
                          per_view_slides * (schedule[k].angular_width - 1);
      cells.push_back(util::fmt(span, 1));
    }
    table.add_row(cells);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("resolution floor: %.3f px at padded r_map = %.0f px; a stage "
              "below it refines the center only\n",
              core::kResolutionFloorPx, r_pad);

  // ---- the paper's claims ----
  double refine_share_worst = 1.0;
  for (const auto& s : stages) {
    if (s.total > 0.0) {
      refine_share_worst =
          std::min(refine_share_worst, (s.refine + s.center) / s.total);
    }
  }
  std::printf("refinement share of cycle time: >= %.1f%% across stages "
              "(paper: ~99%%; the share grows with m and l)\n",
              100.0 * refine_share_worst);

  bool slides_seen = false;
  for (std::size_t k = 1; k < stages.size(); ++k) {
    slides_seen = slides_seen || stages[k].slides > 0;
  }
  std::printf("sliding window activated at fine resolutions: %s (paper: 15 "
              "vs 9 matchings at 0.01 deg)\n",
              slides_seen ? "yes" : "no");

  // ---- the paper's reconstruction-share remark ----
  // "The execution time for 3D reconstruction ... represents less than
  // 5% of the total time per cycle."  Run step C once (distributed, with
  // its odd/even FSC) at the refined poses and compare with the
  // refinement cycle just measured.
  const util::WallTimer recon_timer;
  (void)reconstruct(w, current, centers, ranks);
  const double recon_seconds = recon_timer.seconds();
  double refine_total = 0.0;
  for (const auto& s : stages) refine_total += s.refine + s.center;
  std::printf("3D reconstruction (step C with its odd/even FSC): %.2f s = "
              "%.1f%% of the refinement cycle (paper: <5%%)\n\n",
              recon_seconds,
              100.0 * recon_seconds / (refine_total + recon_seconds));
  return 0;
}

}  // namespace por::bench
