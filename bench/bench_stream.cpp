// bench_stream — the por::stream out-of-core gate (DESIGN.md §14).
//
// Builds a synthetic sharded view stack at the paper's Sindbis scale
// by default (7,917 views of 331² ≈ 6.9 GB of f64 pixels — far beyond
// the --max_resident_mb mapping budget), then measures:
//
//   write    streaming generation throughput through ShardedStackWriter
//            (the stack is never in memory — one shard of pixels is the
//            writer's whole footprint),
//   sweep    whole-stack streaming read throughput through a ViewCursor
//            over a budgeted ShardedViewSource: every byte of every view
//            flows through mmap -> prefetch arena -> consumer while the
//            LRU keeps residency under the budget,
//   refine   the paper workload: OrientationRefiner::refine() on views
//            held in core vs refine_stream() on the same views streamed
//            from the shards, same map, same initial orientations.
//
// Hard gates (exit 1, CI fails the job):
//   * streamed refinement must be BITWISE identical to in-core —
//     orientations, centers and distances, every view,
//   * the streamed path's per-view (per-matching) time must be within
//     --max_time_ratio of in-core (default 1.10: streaming may cost at
//     most 10%),
//   * the refine-phase prefetch stall fraction stalls/(hits+stalls)
//     must stay under --max_stall_frac (default 0.05): refinement
//     compute must hide the I/O.
//
// The raw sweep is reported but not stall-gated: with a trivial
// consumer (a checksum) there is no compute to hide the copy behind,
// so its stall fraction measures memory bandwidth, not pipeline
// health.
//
// Defaults are the paper scale; CI smoke passes small flags instead
// (see .github/workflows/ci.yml), so the committed BENCH_stream.json
// is a real out-of-core run while CI stays fast.
//
// Flags: --l <edge>            (default 331, the Sindbis view edge)
//        --views <count>       (default 7917)
//        --shard_views <n>     (default 256 views per shard)
//        --refine_views <n>    (default 24)
//        --prefetch_depth <n>  (default 2)
//        --batch_views <n>     (default 4, the refine chunk size)
//        --max_resident_mb <n> (default 256)
//        --r_map <px>          (default 16, the refine matching radius
//                               — sets the per-view compute the
//                               prefetch pipeline has to hide behind)
//        --max_stall_frac <f>  (default 0.05)
//        --max_time_ratio <f>  (default 1.10)
//        --dir <path>          (default <tmp>/por_bench_stream; wiped)
//        --keep                (keep the generated stack on disk)
//        --out <path>          (default BENCH_stream.json)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "por/core/refiner.hpp"
#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/obs/export.hpp"
#include "por/obs/registry.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_cursor.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/cli.hpp"
#include "por/util/rng.hpp"
#include "por/util/timer.hpp"

namespace {

using namespace por;
namespace fs = std::filesystem;

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

/// Synthetic view `index`: a smooth deterministic field plus white
/// noise — statistically like a real micrograph window, costs O(pixels)
/// to make, and is bitwise-reproducible for any (index, l).
void make_view(std::uint64_t index, std::size_t l, double* pixels) {
  util::Rng rng(0x5eed0000 + index);
  const double kx = 0.07 + 0.013 * static_cast<double>(index % 17);
  const double ky = 0.05 + 0.011 * static_cast<double>(index % 23);
  for (std::size_t y = 0; y < l; ++y) {
    const double wy = std::cos(ky * static_cast<double>(y));
    for (std::size_t x = 0; x < l; ++x) {
      pixels[y * l + x] = wy * std::sin(kx * static_cast<double>(x)) +
                          0.25 * rng.uniform(-1.0, 1.0);
    }
  }
}

/// Smooth deterministic density map — the refine phase needs a real
/// matcher, not a converging reconstruction, so any finite volume of
/// the right edge does.
em::Volume<double> make_map(std::size_t l) {
  em::Volume<double> map(l);
  const double c = static_cast<double>(l) / 2.0;
  for (std::size_t z = 0; z < l; ++z) {
    for (std::size_t y = 0; y < l; ++y) {
      for (std::size_t x = 0; x < l; ++x) {
        const double dz = (static_cast<double>(z) - c) / c;
        const double dy = (static_cast<double>(y) - c) / c;
        const double dx = (static_cast<double>(x) - c) / c;
        const double r2 = dz * dz + dy * dy + dx * dx;
        map(z, y, x) = std::exp(-3.0 * r2) *
                       (1.0 + 0.3 * std::cos(9.0 * dx) * std::sin(7.0 * dy));
      }
    }
  }
  return map;
}

struct PrefetchCounters {
  std::uint64_t hits = 0;
  std::uint64_t stalls = 0;
};

PrefetchCounters snapshot_prefetch() {
  const auto snap = obs::current_registry().snapshot();
  PrefetchCounters counters;
  if (const auto it = snap.counters.find("stream.prefetch.hits");
      it != snap.counters.end()) {
    counters.hits = it->second;
  }
  if (const auto it = snap.counters.find("stream.prefetch.stalls");
      it != snap.counters.end()) {
    counters.stalls = it->second;
  }
  return counters;
}

double stall_fraction(const PrefetchCounters& before,
                      const PrefetchCounters& after) {
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t stalls = after.stalls - before.stalls;
  return (hits + stalls) > 0
             ? static_cast<double>(stalls) / static_cast<double>(hits + stalls)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  const std::size_t l = static_cast<std::size_t>(cli.get_int("l", 331));
  const std::uint64_t views =
      static_cast<std::uint64_t>(cli.get_int("views", 7917));
  const std::size_t shard_views =
      static_cast<std::size_t>(cli.get_int("shard_views", 256));
  const std::size_t refine_views =
      static_cast<std::size_t>(cli.get_int("refine_views", 24));
  const std::size_t prefetch_depth =
      static_cast<std::size_t>(cli.get_int("prefetch_depth", 2));
  const std::size_t batch_views =
      static_cast<std::size_t>(cli.get_int("batch_views", 4));
  const std::size_t max_resident_mb =
      static_cast<std::size_t>(cli.get_int("max_resident_mb", 256));
  const double r_map = cli.get_double("r_map", 16.0);
  const double max_stall_frac = cli.get_double("max_stall_frac", 0.05);
  const double max_time_ratio = cli.get_double("max_time_ratio", 1.10);
  const std::string dir_flag = cli.get("dir", "");
  const bool keep = cli.get_bool("keep", false);
  const std::string out = cli.get("out", "BENCH_stream.json");
  const std::string metrics_out = cli.metrics_out();
  cli.assert_all_consumed();

  const fs::path dir = dir_flag.empty()
                           ? fs::temp_directory_path() / "por_bench_stream"
                           : fs::path(dir_flag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string base = (dir / "views.shards").string();

  const double stack_gb = static_cast<double>(views) *
                          static_cast<double>(l * l) * sizeof(double) / 1e9;
  std::printf(
      "bench_stream: l=%zu views=%llu (%.2f GB raw) shard_views=%zu "
      "budget=%zu MB depth=%zu batch=%zu\n",
      l, static_cast<unsigned long long>(views), stack_gb, shard_views,
      max_resident_mb, prefetch_depth, batch_views);

  // ---- write: stream the synthetic stack to shards -------------------------
  double write_seconds = 0.0;
  {
    stream::ShardedStackOptions options;
    options.views_per_shard = shard_views;
    stream::ShardedStackWriter writer(base, l, l, options);
    std::vector<double> pixels(l * l);
    util::WallTimer timer;
    for (std::uint64_t i = 0; i < views; ++i) {
      make_view(i, l, pixels.data());
      writer.append(pixels.data());
    }
    writer.finish();
    write_seconds = timer.seconds();
  }
  std::uintmax_t stored_bytes = 0;
  {
    stream::ShardedStack probe(base);
    for (std::size_t k = 0; k < probe.shard_count(); ++k) {
      stored_bytes += fs::file_size(stream::shard_path(base, k));
    }
  }
  std::printf("  write: %.1f s  (%.2f GB/s raw, %.3f stored/raw)\n",
              write_seconds, stack_gb / write_seconds,
              static_cast<double>(stored_bytes) / (stack_gb * 1e9));

  stream::ShardedStackOptions read_options;
  read_options.views_per_shard = shard_views;
  read_options.max_resident_bytes = max_resident_mb << 20;

  // ---- sweep: every view through the prefetching cursor --------------------
  double sweep_seconds = 0.0;
  double sweep_stall_frac = 0.0;
  double checksum = 0.0;
  std::size_t sweep_peak_resident = 0;
  {
    stream::ShardedViewSource source(base, read_options);
    stream::PrefetchOptions prefetch;
    prefetch.depth = prefetch_depth;
    prefetch.batch_views = std::max<std::size_t>(batch_views, 32);
    const PrefetchCounters before = snapshot_prefetch();
    util::WallTimer timer;
    stream::ViewCursor cursor(source, 0, views, prefetch);
    const std::size_t px = source.view_pixels();
    while (const double* pixels = cursor.next()) {
      // Touch a sample of each view so the copy cannot be elided.
      checksum += pixels[0] + pixels[px / 2] + pixels[px - 1];
      sweep_peak_resident =
          std::max(sweep_peak_resident, source.shards().resident_bytes());
    }
    sweep_seconds = timer.seconds();
    sweep_stall_frac = stall_fraction(before, snapshot_prefetch());
  }
  std::printf(
      "  sweep: %.1f s  (%.2f GB/s)  stall_frac=%.3f  peak_resident=%.1f MB "
      "(budget %zu)  checksum=%.6g\n",
      sweep_seconds, stack_gb / sweep_seconds, sweep_stall_frac,
      static_cast<double>(sweep_peak_resident) / 1e6, max_resident_mb,
      checksum);

  // ---- refine: in-core vs streamed, same matcher ----------------------------
  core::RefinerConfig config;
  config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                     core::SearchLevel{0.5, 5, 0.5, 3}};
  config.match.r_map = r_map;
  config.refine_centers = false;
  config.stream.prefetch_depth = prefetch_depth;
  config.stream.batch_views = batch_views;
  config.stream.max_resident_mb = max_resident_mb;

  std::printf("  building matcher (map %zu^3, padded DFT)...\n", l);
  util::WallTimer build_timer;
  const core::OrientationRefiner refiner(make_map(l), config);
  std::printf("  matcher built in %.1f s\n", build_timer.seconds());

  std::vector<em::Orientation> initials;
  util::Rng rng(77);
  for (std::size_t i = 0; i < refine_views; ++i) {
    double theta, phi;
    rng.sphere_point(theta, phi);
    initials.push_back(em::Orientation{em::rad2deg(theta), em::rad2deg(phi),
                                       rng.uniform(0.0, 360.0)});
  }

  stream::ShardedViewSource source(base, read_options);

  // In-core: materialize the slice, then refine (untimed load).
  const std::vector<em::Image<double>> in_core_views =
      source.shards().read_range(0, refine_views);
  util::WallTimer in_core_timer;
  const std::vector<core::ViewResult> in_core =
      refiner.refine(in_core_views, initials);
  const double in_core_seconds = in_core_timer.seconds();

  // Streamed: the stack stays on disk; the cursor feeds the refiner.
  const PrefetchCounters before = snapshot_prefetch();
  util::WallTimer streamed_timer;
  const std::vector<core::ViewResult> streamed =
      refiner.refine_stream(source, 0, refine_views, initials);
  const double streamed_seconds = streamed_timer.seconds();
  const double refine_stall_frac = stall_fraction(before, snapshot_prefetch());

  bool bitwise_identical = in_core.size() == streamed.size();
  for (std::size_t i = 0; bitwise_identical && i < in_core.size(); ++i) {
    bitwise_identical =
        std::memcmp(&in_core[i].orientation, &streamed[i].orientation,
                    sizeof(em::Orientation)) == 0 &&
        in_core[i].center_x == streamed[i].center_x &&
        in_core[i].center_y == streamed[i].center_y &&
        in_core[i].final_distance == streamed[i].final_distance;
  }
  const double time_ratio =
      in_core_seconds > 0.0 ? streamed_seconds / in_core_seconds : 1.0;
  std::printf(
      "  refine %zu views: in-core %.2f s, streamed %.2f s (ratio %.3f), "
      "stall_frac=%.3f, bitwise %s\n",
      refine_views, in_core_seconds, streamed_seconds, time_ratio,
      refine_stall_frac, bitwise_identical ? "IDENTICAL" : "DIVERGED");

  // ---- report ---------------------------------------------------------------
  std::string json = "{\n";
  json += "  \"l\": " + std::to_string(l) + ",\n";
  json += "  \"views\": " + std::to_string(views) + ",\n";
  json += "  \"stack_gb\": " + json_number(stack_gb) + ",\n";
  json += "  \"shard_views\": " + std::to_string(shard_views) + ",\n";
  json += "  \"stored_over_raw\": " +
          json_number(static_cast<double>(stored_bytes) / (stack_gb * 1e9)) +
          ",\n";
  json += "  \"max_resident_mb\": " + std::to_string(max_resident_mb) + ",\n";
  json += "  \"prefetch_depth\": " + std::to_string(prefetch_depth) + ",\n";
  json += "  \"batch_views\": " + std::to_string(batch_views) + ",\n";
  json += "  \"write_seconds\": " + json_number(write_seconds) + ",\n";
  json += "  \"write_gb_per_s\": " + json_number(stack_gb / write_seconds) +
          ",\n";
  json += "  \"sweep_seconds\": " + json_number(sweep_seconds) + ",\n";
  json += "  \"sweep_gb_per_s\": " + json_number(stack_gb / sweep_seconds) +
          ",\n";
  json += "  \"sweep_stall_frac\": " + json_number(sweep_stall_frac) + ",\n";
  json += "  \"sweep_peak_resident_mb\": " +
          json_number(static_cast<double>(sweep_peak_resident) / 1e6) + ",\n";
  json += "  \"refine_views\": " + std::to_string(refine_views) + ",\n";
  json += "  \"r_map\": " + json_number(r_map) + ",\n";
  json += "  \"refine_in_core_seconds\": " + json_number(in_core_seconds) +
          ",\n";
  json += "  \"refine_streamed_seconds\": " + json_number(streamed_seconds) +
          ",\n";
  json += "  \"refine_time_ratio\": " + json_number(time_ratio) + ",\n";
  json += "  \"refine_stall_frac\": " + json_number(refine_stall_frac) +
          ",\n";
  json += "  \"bitwise_identical\": " +
          std::string(bitwise_identical ? "true" : "false") + "\n";
  json += "}\n";
  obs::write_text_file(out, json);
  std::printf("  wrote %s\n", out.c_str());

  if (!metrics_out.empty()) {
    obs::write_text_file(metrics_out,
                         obs::to_json(obs::current_registry().snapshot()));
    std::printf("  wrote %s\n", metrics_out.c_str());
  }
  if (!keep) fs::remove_all(dir);

  // ---- gates ----------------------------------------------------------------
  int rc = 0;
  if (!bitwise_identical) {
    std::fprintf(stderr,
                 "GATE FAILED: streamed refinement diverged from in-core\n");
    rc = 1;
  }
  if (!(time_ratio <= max_time_ratio)) {
    std::fprintf(stderr,
                 "GATE FAILED: streamed/in-core time ratio %.3f > %.3f\n",
                 time_ratio, max_time_ratio);
    rc = 1;
  }
  if (!(refine_stall_frac <= max_stall_frac)) {
    std::fprintf(stderr,
                 "GATE FAILED: refine prefetch stall fraction %.3f > %.3f\n",
                 refine_stall_frac, max_stall_frac);
    rc = 1;
  }
  if (sweep_peak_resident > (max_resident_mb << 20)) {
    std::fprintf(stderr,
                 "GATE FAILED: sweep resident bytes %zu exceeded the %zu MB "
                 "budget\n",
                 sweep_peak_resident, max_resident_mb);
    rc = 1;
  }
  return rc;
}
