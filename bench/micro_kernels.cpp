// micro_kernels — google-benchmark microbenchmarks of the hot kernels
// behind every table: the 1D/2D/3D FFTs (including the paper's odd
// image sizes via Bluestein), central-section extraction, the fused
// matching distance, real-space projection, volume rotation, and the
// por::obs span instruments themselves (the <2% matching-loop
// overhead budget).
//
// Every benchmark mirrors its aggregate timing into the metrics
// registry ("bench.<name>" span series + iteration counters); after
// the run the harness writes the registry snapshot to
// BENCH_micro_kernels.json (override with --metrics-out <path>) via
// the obs JSON exporter.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "por/core/matcher.hpp"
#include "por/em/pad.hpp"
#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/em/rotate.hpp"
#include "por/fft/fft1d.hpp"
#include "por/fft/fftnd.hpp"
#include "por/obs/export.hpp"
#include "por/obs/registry.hpp"
#include "por/obs/span.hpp"
#include "por/util/cli.hpp"
#include "por/util/rng.hpp"
#include "por/util/timer.hpp"

namespace {

using namespace por;

/// RAII: mirrors one benchmark invocation's aggregate into the
/// registry — total loop wall time into span series "bench.<name>",
/// iterations into counter "bench.<name>.iterations".  google-benchmark
/// calls each function several times (calibration + measurement), so
/// these are run-level aggregates, not per-report-row numbers.
class BenchRecorder {
 public:
  BenchRecorder(const char* name, benchmark::State& state)
      : name_(name), state_(state) {}
  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;
  ~BenchRecorder() {
    obs::MetricsRegistry& registry = obs::current_registry();
    registry.counter(std::string("bench.") + name_ + ".iterations")
        .add(static_cast<std::uint64_t>(state_.iterations()));
    registry.span_series(std::string("bench.") + name_)
        .record(static_cast<std::uint64_t>(timer_.seconds() * 1e9));
  }

 private:
  const char* name_;
  benchmark::State& state_;
  util::WallTimer timer_;
};

std::vector<fft::cdouble> random_signal(std::size_t n) {
  util::Rng rng(n);
  std::vector<fft::cdouble> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fft::Fft1D plan(n);
  auto x = random_signal(n);
  const BenchRecorder recorder("fft1d", state);
  for (auto _ : state) {
    plan.forward(x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// Powers of two and the paper's image sizes (Bluestein path).
BENCHMARK(BM_Fft1D)->Arg(64)->Arg(256)->Arg(331)->Arg(511)->Arg(512);

void BM_Fft2D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_signal(n * n);
  const BenchRecorder recorder("fft2d", state);
  for (auto _ : state) {
    fft::fft2d_forward(x.data(), n, n);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Fft2D)->Arg(64)->Arg(96)->Arg(128);

void BM_Fft3D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_signal(n * n * n);
  const BenchRecorder recorder("fft3d", state);
  for (auto _ : state) {
    fft::fft3d_forward(x.data(), n, n, n);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Fft3D)->Arg(32)->Arg(64);

struct MatchFixture {
  std::size_t l = 48;
  em::BlobModel model;
  core::FourierMatcher matcher;
  em::Image<em::cdouble> spectrum;

  MatchFixture()
      : model([] {
          em::PhantomSpec spec;
          spec.l = 48;
          return em::make_asymmetric(spec, 30);
        }()),
        matcher(model.rasterize(48), [] {
          core::MatchOptions options;
          options.r_map = 20.0;
          return options;
        }()),
        spectrum(matcher.prepare_view(model.project_analytic(48, {40, 70, 20}))) {}
};

void BM_MatchingDistance(benchmark::State& state) {
  static MatchFixture fixture;
  double angle = 0.0;
  const BenchRecorder recorder("matching_distance", state);
  for (auto _ : state) {
    angle += 0.01;
    benchmark::DoNotOptimize(
        fixture.matcher.distance(fixture.spectrum, {40 + angle, 70, 20}));
  }
  state.SetLabel("one matching operation (cut + distance), l=48 pad=2");
}
BENCHMARK(BM_MatchingDistance);

// ---- span overhead on the per-view matching loop ----
//
// The acceptance budget for the obs subsystem is <2% on the matching
// loop.  Compare BM_MatchingDistance (bare loop) with:
//   * BM_MatchingDistanceSpan         — every matching wrapped in a
//     pre-resolved SpanTimer (the instrument refine_view uses),
//   * BM_MatchingDistanceSpanDisabled — same loop with the registry
//     disabled: the constructor is one relaxed atomic load, so this
//     must be indistinguishable from the bare loop.

void BM_MatchingDistanceSpan(benchmark::State& state) {
  static MatchFixture fixture;
  obs::SpanSeries& series =
      obs::current_registry().span_series("bench.matching_span");
  double angle = 0.0;
  const BenchRecorder recorder("matching_distance_span", state);
  for (auto _ : state) {
    angle += 0.01;
    const obs::SpanTimer span(series);
    benchmark::DoNotOptimize(
        fixture.matcher.distance(fixture.spectrum, {40 + angle, 70, 20}));
  }
}
BENCHMARK(BM_MatchingDistanceSpan);

void BM_MatchingDistanceSpanDisabled(benchmark::State& state) {
  static MatchFixture fixture;
  obs::SpanSeries& series =
      obs::current_registry().span_series("bench.matching_span_disabled");
  obs::set_enabled(false);
  double angle = 0.0;
  const BenchRecorder recorder("matching_distance_span_disabled", state);
  for (auto _ : state) {
    angle += 0.01;
    const obs::SpanTimer span(series);
    benchmark::DoNotOptimize(
        fixture.matcher.distance(fixture.spectrum, {40 + angle, 70, 20}));
  }
  obs::set_enabled(true);
}
BENCHMARK(BM_MatchingDistanceSpanDisabled);

void BM_SpanTimerAlone(benchmark::State& state) {
  obs::SpanSeries& series =
      obs::current_registry().span_series("bench.span_timer_alone");
  for (auto _ : state) {
    const obs::SpanTimer span(series);
    benchmark::DoNotOptimize(&series);
  }
  state.SetLabel("raw cost of one enabled SpanTimer record");
}
BENCHMARK(BM_SpanTimerAlone);

void BM_ScopedSpanAlone(benchmark::State& state) {
  obs::SpanSeries& series =
      obs::current_registry().span_series("bench.scoped_span_alone");
  for (auto _ : state) {
    const obs::ScopedSpan span(series);
    benchmark::DoNotOptimize(&series);
  }
  state.SetLabel("raw cost of one enabled ScopedSpan (trace record)");
}
BENCHMARK(BM_ScopedSpanAlone);

void BM_AnnulusCut(benchmark::State& state) {
  static MatchFixture fixture;
  double angle = 0.0;
  const BenchRecorder recorder("annulus_cut", state);
  for (auto _ : state) {
    angle += 0.01;
    benchmark::DoNotOptimize(
        fixture.matcher.annulus_cut({40 + angle, 70, 20}));
  }
}
BENCHMARK(BM_AnnulusCut);

void BM_AnalyticProjection(benchmark::State& state) {
  static MatchFixture fixture;
  double angle = 0.0;
  const BenchRecorder recorder("analytic_projection", state);
  for (auto _ : state) {
    angle += 0.01;
    benchmark::DoNotOptimize(
        fixture.model.project_analytic(48, {40 + angle, 70, 20}));
  }
}
BENCHMARK(BM_AnalyticProjection);

void BM_RealspaceProjection(benchmark::State& state) {
  static MatchFixture fixture;
  static const em::Volume<double> map = fixture.model.rasterize(48);
  double angle = 0.0;
  const BenchRecorder recorder("realspace_projection", state);
  for (auto _ : state) {
    angle += 0.01;
    benchmark::DoNotOptimize(em::project_volume(map, {40 + angle, 70, 20}, 1));
  }
}
BENCHMARK(BM_RealspaceProjection);

void BM_VolumeRotation(benchmark::State& state) {
  static MatchFixture fixture;
  static const em::Volume<double> map = fixture.model.rasterize(48);
  double angle = 0.0;
  const BenchRecorder recorder("volume_rotation", state);
  for (auto _ : state) {
    angle += 0.01;
    benchmark::DoNotOptimize(
        em::rotate_volume(map, em::Mat3::rot_z(1.0 + angle)));
  }
}
BENCHMARK(BM_VolumeRotation);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the benchmark run the
// registry snapshot (bench.* series plus everything the instrumented
// kernels recorded — fft.* counters in particular) is serialized with
// the obs JSON exporter.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // benchmark::Initialize strips the --benchmark_* flags; what remains
  // is ours.  Default output name follows the BENCH_* convention.
  const por::util::CliParser cli(argc, argv);
  const std::string metrics_path =
      cli.metrics_out().empty() ? "BENCH_micro_kernels.json"
                                : cli.metrics_out();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const por::obs::Snapshot snapshot = por::obs::global_registry().snapshot();
  por::obs::write_text_file(metrics_path, por::obs::to_json(snapshot));
  std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  return 0;
}
