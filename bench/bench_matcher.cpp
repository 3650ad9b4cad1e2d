// bench_matcher — the matcher hot-path trajectory benchmark AND the
// PR-7 perf/correctness gate.
//
// Times one matching operation (the paper's cost unit: every view
// costs w^3 of these per level per slide) through the matcher paths:
//   scalar   — distance_reference(): per-pixel sqrt + ring test +
//              transfer lerp + bounds-checked trilinear fetch,
//   fast     — distance() on EVERY simd tier this machine + binary
//              supports (sse2 / avx2 / avx512, each pinned with
//              simd::force_isa() while its matcher is built), staged
//              through the dispatched stage/consume kernel pair,
// verifies every tier's equivalence against the scalar oracle on the
// spot, runs a forced multi-slide search, times one 0.1 deg w = 9
// window (the descent search against the exhaustive loop it
// replaced), counts general-heap allocations on the warmed steady-state
// search path (must be ZERO: the search scratch is reused once warm,
// DESIGN.md §12), and writes everything to BENCH_matcher.json (override with
// --out <path>) so CI can chart ns/matching over time.
//
// Exit status: 1 if any tier diverges from the scalar oracle by more
// than 1e-12 (relative) or the warmed steady-state search path touches
// the general heap; 0 otherwise.  CI runs this as a hard gate.
//
// Timing protocol: each path's matching loop runs --reps times,
// alternating tiers/scalar so slow machine phases hit both, and the
// reported ns/matching is the minimum over reps — the standard
// noise-robust estimator on shared hardware.
//
// Flags: --l <edge> (default 64)  --pad <factor> (default 2)
//        --matchings <count per path> (default 200)
//        --reps <repetitions per path> (default 5)
//        --paper_sizes (ALSO time the best tier + scalar at the
//                       paper's view edges, 331 and 511, on a cheap
//                       synthetic lattice — opt-in, several GB of
//                       spectrum and minutes of padded 3D DFT per
//                       size, so the CI smoke run never pays it)
//        --paper_matchings <count per paper size> (default 40)
//        --out <path> (default BENCH_matcher.json)

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "por/core/matcher.hpp"
#include "por/core/sliding_window.hpp"
#include "por/em/phantom.hpp"
#include "por/obs/export.hpp"
#include "por/obs/registry.hpp"
#include "por/simd/isa.hpp"
#include "por/simd/kernels.hpp"
#include "por/util/cli.hpp"
#include "por/util/rng.hpp"
#include "por/util/timer.hpp"

// ---------------------------------------------------------------------------
// Counting global operator new/delete: the oracle for the "zero
// general-heap allocations on the warmed steady-state search path"
// contract (DESIGN.md §12).  Counting is gated so only the probed
// region pays the (relaxed) atomic increment.
// ---------------------------------------------------------------------------

namespace {
// por-atomic-file: stat — bench-local alloc counters; single bench
// thread flips the gate, atomicity alone is enough.
std::atomic<bool> g_count_heap{false};
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_heap.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace por;

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

constexpr double kMaxRelDiff = 1e-12;  ///< fast-vs-scalar gate

/// The window search sliding_window_search replaced, kept as the
/// baseline of the window row: every candidate of every round through
/// distance(), argmin strict < in candidate order, the same slide rule.
core::WindowResult exhaustive_window(const core::FourierMatcher& matcher,
                                     const em::Image<em::cdouble>& spectrum,
                                     core::SearchDomain domain) {
  core::WindowResult result;
  const int w = domain.width;
  for (int round = 0;; ++round) {
    const std::vector<em::Orientation> grid = domain.enumerate();
    std::size_t best = 0;
    double best_distance = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double d = matcher.distance(spectrum, grid[i]);
      if (i == 0 || d < best_distance) {
        best_distance = d;
        best = i;
      }
    }
    result.matchings += grid.size();
    result.best = grid[best];
    result.best_distance = best_distance;
    const int it = static_cast<int>(best) / (w * w);
    const int ip = (static_cast<int>(best) / w) % w;
    const int io = static_cast<int>(best) % w;
    if (!domain.on_edge(it, ip, io) || round >= 8) break;
    domain = domain.recentered(result.best);
    ++result.slides;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  const std::size_t l = static_cast<std::size_t>(cli.get_int("l", 64));
  const std::size_t pad = static_cast<std::size_t>(cli.get_int("pad", 2));
  const std::size_t matchings =
      static_cast<std::size_t>(cli.get_int("matchings", 200));
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const bool paper_sizes = cli.get_bool("paper_sizes", false);
  const std::size_t paper_matchings =
      static_cast<std::size_t>(cli.get_int("paper_matchings", 40));
  const std::string out = cli.get("out", "BENCH_matcher.json");
  const std::string metrics_out = cli.metrics_out();
  cli.assert_all_consumed();

  std::printf("bench_matcher: l=%zu pad=%zu matchings=%zu reps=%zu\n", l, pad,
              matchings, reps);

  // Workload: a sindbis-like phantom and one noiseless view.
  em::PhantomSpec phantom;
  phantom.l = l;
  const em::BlobModel model = em::make_sindbis_like(phantom);
  const em::Volume<double> lattice = model.rasterize(l);

  // The tiers this machine + binary can actually run: kernel_table()
  // clamps a requested tier down, so a tier is available exactly when
  // its table answers for itself.
  std::vector<simd::Isa> tiers;
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::kernel_table(isa).isa == isa) tiers.push_back(isa);
  }
  const simd::Isa best = tiers.back();

  // One matcher per tier.  A matcher snapshots the process-wide tier
  // at construction, and force_isa() is clamped only to the hardware,
  // so pinning each tier while its matcher is built measures every
  // tier whatever POR_FORCE_ISA says.  The tier is restored afterwards.
  // The best tier doubles as the "fast" path and drives the scalar
  // comparison + window probes.
  util::WallTimer build_timer;
  std::vector<std::unique_ptr<core::FourierMatcher>> matchers;
  const simd::Isa process_isa = simd::active_isa();
  for (const simd::Isa isa : tiers) {
    simd::force_isa(isa);
    core::MatchOptions options;
    options.pad = pad;
    matchers.push_back(std::make_unique<core::FourierMatcher>(lattice, options));
  }
  simd::force_isa(process_isa);
  const double build_seconds =
      build_timer.seconds() / static_cast<double>(tiers.size());
  const core::FourierMatcher& matcher = *matchers.back();

  const em::Orientation truth{48.0, 160.0, 72.0};
  const em::Image<em::cdouble> spectrum =
      matcher.prepare_view(model.project_analytic(l, truth));

  // Candidate orientations: near-truth plus fully random, the mix the
  // refiner actually scores.
  util::Rng rng(4242);
  std::vector<em::Orientation> candidates;
  candidates.reserve(matchings);
  for (std::size_t i = 0; i < matchings; ++i) {
    if (i % 2 == 0) {
      candidates.push_back(em::Orientation{truth.theta + rng.uniform(-3, 3),
                                           truth.phi + rng.uniform(-3, 3),
                                           truth.omega + rng.uniform(-3, 3)});
    } else {
      double theta, phi;
      rng.sphere_point(theta, phi);
      candidates.push_back(em::Orientation{em::rad2deg(theta),
                                           em::rad2deg(phi),
                                           rng.uniform(0.0, 360.0)});
    }
  }

  // Warm every path (page in the tables / spectrum), then time.  Each
  // path runs `reps` full passes, interleaved tier/scalar so machine
  // noise lands on all of them; min-of-reps is the reported estimate.
  for (const auto& m : matchers) (void)m->distance(spectrum, truth);
  (void)matcher.distance_reference(spectrum, truth);

  std::vector<std::vector<double>> tier_scores(
      tiers.size(), std::vector<double>(matchings));
  std::vector<double> scalar_scores(matchings);
  std::vector<std::vector<double>> tier_rep_seconds(
      tiers.size(), std::vector<double>(reps));
  std::vector<double> scalar_rep_seconds(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      util::WallTimer tier_timer;
      for (std::size_t i = 0; i < matchings; ++i) {
        tier_scores[t][i] = matchers[t]->distance(spectrum, candidates[i]);
      }
      tier_rep_seconds[t][rep] = tier_timer.seconds();
    }
    util::WallTimer scalar_timer;
    for (std::size_t i = 0; i < matchings; ++i) {
      scalar_scores[i] = matcher.distance_reference(spectrum, candidates[i]);
    }
    scalar_rep_seconds[rep] = scalar_timer.seconds();
  }
  const auto min_seconds = [](const std::vector<double>& seconds) {
    return *std::min_element(seconds.begin(), seconds.end());
  };
  const double scalar_seconds = min_seconds(scalar_rep_seconds);

  // Every tier must agree with the scalar oracle to 1e-12 (relative) —
  // the FMA-contraction tolerance policy of por/simd/kernels.hpp.
  std::vector<double> tier_max_rel_diff(tiers.size(), 0.0);
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    for (std::size_t i = 0; i < matchings; ++i) {
      const double scale = std::max(1.0, std::abs(scalar_scores[i]));
      tier_max_rel_diff[t] =
          std::max(tier_max_rel_diff[t],
                   std::abs(tier_scores[t][i] - scalar_scores[i]) / scale);
    }
  }

  const double ns_scalar =
      scalar_seconds * 1e9 / static_cast<double>(matchings);
  std::vector<double> tier_ns(tiers.size());
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    tier_ns[t] =
        min_seconds(tier_rep_seconds[t]) * 1e9 / static_cast<double>(matchings);
  }
  const double ns_fast = tier_ns.back();
  const double speedup = ns_fast > 0.0 ? ns_scalar / ns_fast : 0.0;
  const double fetches_per_matching =
      static_cast<double>(matcher.annulus().size());

  // A forced multi-slide search: start the window off-truth so it
  // slides through overlapping domains.
  const core::SearchDomain domain{
      em::Orientation{truth.theta + 3.0, truth.phi, truth.omega}, 1.0, 3};
  const core::WindowResult window =
      core::sliding_window_search(matcher, spectrum, domain);

  // Steady-state allocation probe: the search above warmed the
  // thread-local search scratch and the obs handle caches; repeated
  // serial searches on the warmed matcher must now reuse them without
  // touching the heap.
  std::uint64_t steady_state_allocs = 0;
  {
    g_heap_allocs.store(0, std::memory_order_relaxed);
    g_count_heap.store(true, std::memory_order_relaxed);
    for (int pass = 0; pass < 3; ++pass) {
      (void)core::sliding_window_search(matcher, spectrum, domain);
    }
    g_count_heap.store(false, std::memory_order_relaxed);
    steady_state_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  }

  // One 0.1 deg, w = 9 window at cycle_paper's matching radius
  // (r_map = l / 8), started 0.3 deg off the truth in every angle: the
  // descent of sliding_window_search against the exhaustive loop it
  // replaced, minimum over reps, alternating.
  core::MatchOptions window_options;
  window_options.pad = pad;
  window_options.r_map = static_cast<double>(l) / 8.0;
  const core::FourierMatcher window_matcher(lattice, window_options);
  const em::Image<em::cdouble> window_view =
      window_matcher.prepare_view(model.project_analytic(l, truth));
  const core::SearchDomain fine{
      em::Orientation{truth.theta + 0.3, truth.phi - 0.3, truth.omega + 0.3},
      0.1, 9};
  core::WindowResult descent, exhaustive;
  std::vector<double> descent_s, exhaustive_s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::WallTimer descent_timer;
    descent = core::sliding_window_search(window_matcher, window_view, fine);
    descent_s.push_back(descent_timer.seconds());
    util::WallTimer exhaustive_timer;
    exhaustive = exhaustive_window(window_matcher, window_view, fine);
    exhaustive_s.push_back(exhaustive_timer.seconds());
  }
  const double descent_us = min_seconds(descent_s) * 1e6;
  const double exhaustive_us = min_seconds(exhaustive_s) * 1e6;
  const bool window_agrees = descent.best == exhaustive.best &&
                             descent.best_distance == exhaustive.best_distance;

  // ---- opt-in paper-size pass (--paper_sizes) ------------------------------
  // Times the best tier + scalar at the paper's view edges on a cheap
  // synthetic lattice (rasterizing a blob phantom at 331^3/511^3 costs
  // more than the measurement would).  One matcher lives at a time —
  // the 511 spectrum alone is ~17 GB.
  std::string paper_json;
  double paper_worst_rel_diff = 0.0;
  if (paper_sizes) {
    paper_json = "  \"paper_sizes\": [\n";
    const std::size_t paper_edges[] = {331, 511};
    for (std::size_t s = 0; s < 2; ++s) {
      const std::size_t pl = paper_edges[s];
      em::Volume<double> lattice_paper(pl);
      {
        const double c = static_cast<double>(pl) / 2.0;
        for (std::size_t z = 0; z < pl; ++z) {
          for (std::size_t y = 0; y < pl; ++y) {
            for (std::size_t x = 0; x < pl; ++x) {
              const double dz = (static_cast<double>(z) - c) / c;
              const double dy = (static_cast<double>(y) - c) / c;
              const double dx = (static_cast<double>(x) - c) / c;
              lattice_paper(z, y, x) =
                  std::exp(-3.0 * (dz * dz + dy * dy + dx * dx)) *
                  (1.0 + 0.3 * std::cos(9.0 * dx) * std::sin(7.0 * dy));
            }
          }
        }
      }
      std::printf("  paper size %zu: building matcher (padded 3D DFT)...\n",
                  pl);
      util::WallTimer paper_build_timer;
      core::MatchOptions paper_options;
      paper_options.pad = pad;
      paper_options.r_map = 16.0;  // the refiners' paper-run radius
      const core::FourierMatcher paper_matcher(lattice_paper, paper_options);
      const double paper_build_seconds = paper_build_timer.seconds();

      util::Rng paper_rng(9090 + pl);
      em::Image<double> paper_view(pl, pl);
      for (auto& p : paper_view.storage()) p = paper_rng.uniform(-1.0, 1.0);
      const em::Image<em::cdouble> paper_spectrum =
          paper_matcher.prepare_view(paper_view);
      std::vector<em::Orientation> paper_candidates;
      for (std::size_t i = 0; i < paper_matchings; ++i) {
        double theta, phi;
        paper_rng.sphere_point(theta, phi);
        paper_candidates.push_back(em::Orientation{
            em::rad2deg(theta), em::rad2deg(phi),
            paper_rng.uniform(0.0, 360.0)});
      }
      (void)paper_matcher.distance(paper_spectrum, paper_candidates[0]);
      (void)paper_matcher.distance_reference(paper_spectrum,
                                             paper_candidates[0]);

      double fast_seconds = 0.0, scalar_paper_seconds = 0.0, rel_diff = 0.0;
      {
        util::WallTimer timer;
        for (const auto& candidate : paper_candidates) {
          (void)paper_matcher.distance(paper_spectrum, candidate);
        }
        fast_seconds = timer.seconds();
      }
      {
        util::WallTimer timer;
        for (const auto& candidate : paper_candidates) {
          (void)paper_matcher.distance_reference(paper_spectrum, candidate);
        }
        scalar_paper_seconds = timer.seconds();
      }
      for (const auto& candidate : paper_candidates) {
        const double fast = paper_matcher.distance(paper_spectrum, candidate);
        const double scalar =
            paper_matcher.distance_reference(paper_spectrum, candidate);
        rel_diff = std::max(rel_diff, std::abs(fast - scalar) /
                                          std::max(1.0, std::abs(scalar)));
      }
      paper_worst_rel_diff = std::max(paper_worst_rel_diff, rel_diff);
      const double paper_ns_fast =
          fast_seconds * 1e9 / static_cast<double>(paper_matchings);
      const double paper_ns_scalar =
          scalar_paper_seconds * 1e9 / static_cast<double>(paper_matchings);
      std::printf(
          "  paper size %zu: build %.1f s  annulus %zu px  ns/matching fast "
          "%.0f  scalar %.0f (%.2fx)  max rel diff %.3g\n",
          pl, paper_build_seconds, paper_matcher.annulus().size(),
          paper_ns_fast, paper_ns_scalar,
          paper_ns_fast > 0.0 ? paper_ns_scalar / paper_ns_fast : 0.0,
          rel_diff);

      paper_json += "    {\n";
      paper_json += "      \"l\": " + std::to_string(pl) + ",\n";
      paper_json += "      \"table_build_seconds\": " +
                    json_number(paper_build_seconds) + ",\n";
      paper_json += "      \"fetches_per_matching\": " +
                    json_number(static_cast<double>(
                        paper_matcher.annulus().size())) +
                    ",\n";
      paper_json += "      \"ns_per_matching_fast\": " +
                    json_number(paper_ns_fast) + ",\n";
      paper_json += "      \"ns_per_matching_scalar\": " +
                    json_number(paper_ns_scalar) + ",\n";
      paper_json += "      \"max_rel_diff_vs_scalar\": " +
                    json_number(rel_diff) + "\n";
      paper_json += s == 0 ? "    },\n" : "    }\n";
    }
    paper_json += "  ],\n";
  }

  std::printf("  annulus pixels (fetches/matching): %zu\n",
              matcher.annulus().size());
  std::printf("  table build: %.3f ms\n", build_seconds * 1e3);
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    std::printf("  ns/matching  %-6s: %.0f   (max rel diff vs scalar %.3g)\n",
                simd::isa_name(tiers[t]), tier_ns[t], tier_max_rel_diff[t]);
  }
  std::printf("  ns/matching  scalar: %.0f   best-tier speedup: %.2fx\n",
              ns_scalar, speedup);
  std::printf("  steady-state heap allocations (3 warmed searches): %llu\n",
              static_cast<unsigned long long>(steady_state_allocs));
  std::printf("  window: slides=%d matchings=%llu\n", window.slides,
              static_cast<unsigned long long>(window.matchings));

  std::printf("  0.1 deg w=9 window: descent %.0f us (%llu matchings), "
              "exhaustive %.0f us (%llu matchings), same winner: %s\n",
              descent_us, static_cast<unsigned long long>(descent.matchings),
              exhaustive_us,
              static_cast<unsigned long long>(exhaustive.matchings),
              window_agrees ? "yes" : "no");

  std::string json = "{\n";
  json += paper_json;
  json += "  \"l\": " + std::to_string(l) + ",\n";
  json += "  \"pad\": " + std::to_string(pad) + ",\n";
  json += "  \"matchings\": " + std::to_string(matchings) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"simd_isa\": \"" + std::string(simd::isa_name(best)) + "\",\n";
  json += "  \"table_build_seconds\": " + json_number(build_seconds) + ",\n";
  json += "  \"fetches_per_matching\": " + json_number(fetches_per_matching) +
          ",\n";
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const std::string name = simd::isa_name(tiers[t]);
    json += "  \"ns_per_matching_" + name + "\": " + json_number(tier_ns[t]) +
            ",\n";
    json += "  \"max_rel_diff_" + name + "\": " +
            json_number(tier_max_rel_diff[t]) + ",\n";
  }
  json += "  \"ns_per_matching_fast\": " + json_number(ns_fast) + ",\n";
  json += "  \"ns_per_matching_scalar\": " + json_number(ns_scalar) + ",\n";
  auto rep_list = [&](const std::vector<double>& seconds) {
    std::string list = "[";
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      if (i) list += ", ";
      list += json_number(seconds[i] * 1e9 / static_cast<double>(matchings));
    }
    return list + "]";
  };
  json += "  \"ns_per_matching_fast_reps\": " +
          rep_list(tier_rep_seconds.back()) + ",\n";
  json += "  \"ns_per_matching_scalar_reps\": " +
          rep_list(scalar_rep_seconds) + ",\n";
  json += "  \"speedup_vs_scalar\": " + json_number(speedup) + ",\n";
  json += "  \"max_rel_diff_vs_scalar\": " +
          json_number(tier_max_rel_diff.back()) + ",\n";
  json += "  \"steady_state_allocs\": " +
          std::to_string(steady_state_allocs) + ",\n";
  json += "  \"window_slides\": " + std::to_string(window.slides) + ",\n";
  json += "  \"window_matchings\": " + std::to_string(window.matchings) +
          ",\n";
  json += "  \"window_0p1deg_w9_descent_us\": " + json_number(descent_us) +
          ",\n";
  json += "  \"window_0p1deg_w9_descent_matchings\": " +
          std::to_string(descent.matchings) + ",\n";
  json += "  \"window_0p1deg_w9_exhaustive_us\": " +
          json_number(exhaustive_us) + ",\n";
  json += "  \"window_0p1deg_w9_exhaustive_matchings\": " +
          std::to_string(exhaustive.matchings) + ",\n";
  json += "  \"window_0p1deg_w9_same_winner\": " +
          std::string(window_agrees ? "true" : "false") + "\n";
  json += "}\n";
  obs::write_text_file(out, json);
  std::printf("  wrote %s\n", out.c_str());

  if (!metrics_out.empty()) {
    obs::write_text_file(metrics_out,
                         obs::to_json(obs::current_registry().snapshot()));
    std::printf("  wrote %s\n", metrics_out.c_str());
  }

  // Hard gates (CI fails the job on a nonzero exit).
  int rc = 0;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    if (!(tier_max_rel_diff[t] <= kMaxRelDiff)) {
      std::fprintf(stderr,
                   "GATE FAILED: %s diverges from scalar by %.3g (> %.0e)\n",
                   simd::isa_name(tiers[t]), tier_max_rel_diff[t], kMaxRelDiff);
      rc = 1;
    }
  }
  if (steady_state_allocs != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: %llu general-heap allocations on the warmed "
                 "steady-state search path (must be 0)\n",
                 static_cast<unsigned long long>(steady_state_allocs));
    rc = 1;
  }
  if (!(paper_worst_rel_diff <= kMaxRelDiff)) {
    std::fprintf(stderr,
                 "GATE FAILED: paper-size fast path diverges from scalar by "
                 "%.3g (> %.0e)\n",
                 paper_worst_rel_diff, kMaxRelDiff);
    rc = 1;
  }
  return rc;
}
