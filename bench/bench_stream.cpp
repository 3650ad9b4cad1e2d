// bench_stream — the por::stream out-of-core gate (DESIGN.md §14).
//
// Builds a synthetic sharded view stack at the paper's Sindbis scale
// by default (7,917 views of 331² ≈ 6.9 GB of f64 pixels — far beyond
// the --max_resident_mb mapping budget), then measures:
//
//   write    streaming generation throughput through ShardedStackWriter
//            (the stack is never in memory — one shard of pixels is the
//            writer's whole footprint),
//   sweep    whole-stack read throughput over a budgeted
//            ShardedViewSource: a will_need hint per shard, then every
//            view fetched in order, while the LRU keeps residency
//            under the budget,
//   refine   the paper workload: OrientationRefiner::refine() on views
//            held in core vs refine_stream() on the same views read
//            from the shards, same map, same initial orientations.
//            Each leg runs kRefineReps times, alternating which leg
//            goes first, and the legs are compared by their medians.
//
// Hard gates (exit 1, CI fails the job):
//   * streamed refinement must be BITWISE identical to in-core —
//     orientations, centers and distances, every view, every run,
//   * the streamed leg's median time must be within --max_time_ratio
//     of the in-core leg's median (default 1.10: streaming may cost at
//     most 10%),
//   * the sweep's peak resident shard bytes must stay within
//     --max_resident_mb.
//
// Defaults are the paper scale; CI smoke passes small flags instead
// (see .github/workflows/ci.yml), so the committed BENCH_stream.json
// is a real out-of-core run while CI stays fast.
//
// Flags: --l <edge>            (default 331, the Sindbis view edge)
//        --views <count>       (default 7917)
//        --shard_views <n>     (default 256 views per shard)
//        --refine_views <n>    (default 24)
//        --max_resident_mb <n> (default 256)
//        --r_map <px>          (default 16, the refine matching radius
//                               — sets the per-view compute the
//                               reads are measured against)
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

// Runs per refine leg.  One ~0.9 s run per leg put the ratio anywhere
// in 1.05-1.22 at paper scale; the median of five is stable enough to
// gate at 1.10.
constexpr int kRefineReps = 5;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

bool bitwise_equal(const std::vector<core::ViewResult>& a,
                   const std::vector<core::ViewResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].orientation, &b[i].orientation,
                    sizeof(em::Orientation)) != 0 ||
        a[i].center_x != b[i].center_x || a[i].center_y != b[i].center_y ||
        a[i].final_distance != b[i].final_distance) {
      return false;
    }
  }
  return true;
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
  const std::size_t max_resident_mb =
      static_cast<std::size_t>(cli.get_int("max_resident_mb", 256));
  const double r_map = cli.get_double("r_map", 16.0);
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
      "budget=%zu MB\n",
      l, static_cast<unsigned long long>(views), stack_gb, shard_views,
      max_resident_mb);

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

  // ---- sweep: every view, one shard hint at a time -------------------------
  double sweep_seconds = 0.0;
  double checksum = 0.0;
  std::size_t sweep_peak_resident = 0;
  {
    stream::ShardedViewSource source(base, read_options);
    const std::size_t px = source.view_pixels();
    std::vector<double> pixels(px);
    util::WallTimer timer;
    for (std::uint64_t i = 0; i < views; ++i) {
      if (i % shard_views == 0) source.will_need(i, shard_views);
      source.fetch(i, pixels.data());
      // Touch a sample of each view so the copy cannot be elided.
      checksum += pixels[0] + pixels[px / 2] + pixels[px - 1];
      sweep_peak_resident =
          std::max(sweep_peak_resident, source.shards().resident_bytes());
    }
    sweep_seconds = timer.seconds();
  }
  std::printf(
      "  sweep: %.1f s  (%.2f GB/s)  peak_resident=%.1f MB (budget %zu)  "
      "checksum=%.6g\n",
      sweep_seconds, stack_gb / sweep_seconds,
      static_cast<double>(sweep_peak_resident) / 1e6, max_resident_mb,
      checksum);

  // ---- refine: in-core vs streamed, same matcher ----------------------------
  core::RefinerConfig config;
  config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                     core::SearchLevel{0.5, 5, 0.5, 3}};
  config.match.r_map = r_map;
  config.refine_centers = false;
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

  // In-core: the slice materialized once (untimed load).  Streamed: the
  // stack stays on disk and refine_stream fetches each view.
  const std::vector<em::Image<double>> in_core_views =
      source.shards().read_range(0, refine_views);
  std::vector<core::ViewResult> in_core;
  std::vector<double> in_core_runs, streamed_runs;
  bool bitwise_identical = true;
  const auto run_in_core = [&] {
    util::WallTimer timer;
    std::vector<core::ViewResult> results =
        refiner.refine(in_core_views, initials);
    in_core_runs.push_back(timer.seconds());
    if (in_core.empty()) in_core = results;
    bitwise_identical = bitwise_identical && bitwise_equal(in_core, results);
  };
  const auto run_streamed = [&] {
    util::WallTimer timer;
    const std::vector<core::ViewResult> results =
        refiner.refine_stream(source, 0, refine_views, initials);
    streamed_runs.push_back(timer.seconds());
    bitwise_identical = bitwise_identical && bitwise_equal(in_core, results);
  };
  for (int rep = 0; rep < kRefineReps; ++rep) {
    if (rep % 2 == 0) {
      run_in_core();
      run_streamed();
    } else {
      run_streamed();
      run_in_core();
    }
  }
  const double in_core_seconds = median(in_core_runs);
  const double streamed_seconds = median(streamed_runs);
  const double time_ratio =
      in_core_seconds > 0.0 ? streamed_seconds / in_core_seconds : 1.0;
  std::printf(
      "  refine %zu views, median of %d: in-core %.2f s, streamed %.2f s "
      "(ratio %.3f), bitwise %s\n",
      refine_views, kRefineReps, in_core_seconds, streamed_seconds,
      time_ratio, bitwise_identical ? "IDENTICAL" : "DIVERGED");

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
  json += "  \"write_seconds\": " + json_number(write_seconds) + ",\n";
  json += "  \"write_gb_per_s\": " + json_number(stack_gb / write_seconds) +
          ",\n";
  json += "  \"sweep_seconds\": " + json_number(sweep_seconds) + ",\n";
  json += "  \"sweep_gb_per_s\": " + json_number(stack_gb / sweep_seconds) +
          ",\n";
  json += "  \"sweep_peak_resident_mb\": " +
          json_number(static_cast<double>(sweep_peak_resident) / 1e6) + ",\n";
  json += "  \"refine_views\": " + std::to_string(refine_views) + ",\n";
  json += "  \"r_map\": " + json_number(r_map) + ",\n";
  json += "  \"refine_in_core_seconds\": " + json_number(in_core_seconds) +
          ",\n";
  json += "  \"refine_streamed_seconds\": " + json_number(streamed_seconds) +
          ",\n";
  json += "  \"refine_in_core_runs\": " + json_array(in_core_runs) + ",\n";
  json += "  \"refine_streamed_runs\": " + json_array(streamed_runs) + ",\n";
  json += "  \"refine_time_ratio\": " + json_number(time_ratio) + ",\n";
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
                 "GATE FAILED: streamed/in-core median time ratio %.3f > "
                 "%.3f\n",
                 time_ratio, max_time_ratio);
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
