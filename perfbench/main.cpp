// perfbench — the repository benchmark: one B<->C refinement cycle and a
// journaled refinement service, timed end to end and layer by layer.
//
//   perfbench --workload cycle_paper|cycle_wide|serve_journal
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--size full|tiny]
//
// Every input is generated from --seed under --workdir (removed on
// exit).  --trace 0 measures with obs timing spans off and prints the
// end-to-end metrics; --trace 1 alternates untraced and traced passes
// of the same workload and prints the per-layer metrics.  The last
// stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --size tiny shrinks every workload for the self-test (selftest.py).
//
// All library calls go through adapter.hpp.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adapter.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- statistics --------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- the metric vocabulary --------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"cycle_s", "s"},
    {"orient_err_mean_deg", "deg"},
    {"orient_err_p95_deg", "deg"},
    {"center_err_mean_px", "px"},
    {"fsc05_px", "px"},
    {"jobs_per_s", "jobs/s"},
    {"job_latency_p50_s", "s"},
    {"job_latency_p99_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"stream.read_s", "s"},
    {"stream.read_gb_per_s", "GB/s"},
    {"stream.prefetch_stall_frac", "ratio"},
    {"stream.resident_peak_mb", "MiB"},
    {"stream.distribute_s", "s"},
    {"fft.map_dft_s", "s"},
    {"fft.view_analysis_s", "s"},
    {"fft.plan_cache_hit_frac", "ratio"},
    {"matcher.table_build_s", "s"},
    {"matcher.orient_s", "s"},
    {"matcher.matchings", "count"},
    {"matcher.ns_per_matching", "ns"},
    {"matcher.kernel_ns", "ns"},
    {"matcher.overhead_frac", "ratio"},
    {"window.slides", "count"},
    {"window.cache_hit_frac", "ratio"},
    {"refiner.view_max_s", "s"},
    {"center.refine_s", "s"},
    {"center.evals", "count"},
    {"recon.s", "s"},
    {"fsc.s", "s"},
    {"vmpi.sent_bytes", "bytes"},
    {"vmpi.sent_messages", "count"},
    {"vmpi.rank_imbalance", "ratio"},
    {"vmpi.efficiency", "ratio"},
    {"serve.submit_p50_s", "s"},
    {"serve.submit_p99_s", "s"},
    {"serve.refine_busy_s", "s"},
    {"serve.worker_util", "ratio"},
    {"serve.non_refine_s_per_job", "s"},
    {"serve.sched.steals", "count"},
    {"serve.queue_depth_max", "count"},
    {"journal.fsyncs_per_job", "count"},
    {"journal.append_durable_s", "s"},
    {"checkpoint.writes_per_job", "count"},
    {"checkpoint.write_s", "s"},
    {"serve.pass_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"cycle.traced_s", "s"},
    {"cycle.unattributed_frac", "ratio"},
};

/// Values by metric name; a metric a workload never exercises (the
/// service layers on a cycle, vmpi on the service) reads 0.
using Values = std::map<std::string, double>;

struct RunResult {
  Values values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    problems.push_back(why);
  }
};

void print_result(const RunResult& run, bool trace) {
  const auto& defs = trace ? kPerLayer : kEndToEnd;
  bool finite = true;
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = run.values.find(def.name);
    double v = it == run.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", def.name);
      finite = false;
      v = 0.0;
    }
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, v, def.unit);
    metrics += buffer;
  }
  for (const std::string& p : run.problems) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", p.c_str());
  }
  const bool correct = finite && run.failed == 0 && run.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  run.attempted, 1)),
              static_cast<unsigned long long>(run.failed), metrics.c_str());
  std::fflush(stdout);
}

// ---- arguments ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  bool tiny = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--size") {
      args.tiny = value == "tiny";
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags come in pairs");
  if (args.workload.empty() || args.workdir.empty()) {
    throw std::invalid_argument("--workload and --workdir are required");
  }
  return args;
}

/// Traced runs interleave untraced and traced cycles as u t t u u t t u,
/// so a drift over the run (caches still settling, a neighbour's load)
/// weighs on both sides alike.
bool traced_slot(std::size_t i) { return i % 4 == 1 || i % 4 == 2; }

/// Pose-accuracy metrics of refined poses against the phantom truth.
void add_accuracy(Values& v, const std::vector<Pose>& refined,
                  const std::vector<Pose>& truth, bool asymmetric) {
  std::vector<Orientation> est, tru;
  std::vector<double> center_err;
  for (std::size_t i = 0; i < refined.size(); ++i) {
    est.push_back(refined[i].orientation);
    tru.push_back(truth[i].orientation);
    center_err.push_back(std::hypot(refined[i].cx - truth[i].cx,
                                    refined[i].cy - truth[i].cy));
  }
  const std::vector<double> err = orientation_errors_deg(est, tru, asymmetric);
  v["orient_err_mean_deg"] = mean(err);
  v["orient_err_p95_deg"] = quantile(err, 0.95);
  v["center_err_mean_px"] = mean(center_err);
}

// ---- cycle workloads ---------------------------------------------------

struct CycleWorkload {
  DatasetSpec data;
  RefineSettings refine;
  /// Upper edge of the band for the mean orientation error (degrees),
  /// about 1.4x the median over seeds when the workload was introduced;
  /// a cycle above it produced wrong orientations.
  double err_band_deg = 0.0;
  /// Set-ups per run; setup_s is their median.
  int setups = 11;
};

CycleWorkload cycle_workload(const Args& args) {
  CycleWorkload w;
  w.data.seed = args.seed;
  w.data.snr = 2.0;
  w.data.quantize_deg = 3.0;
  w.data.max_shift_px = 1.0;
  w.refine.ranks = 4;
  if (args.workload == "cycle_paper") {
    // The paper's four-level schedule at l = 64, one pass per level as
    // tabulated in Tables 1 and 2: matching and the sliding window
    // dominate.  Hundreds of views keep the slowest rank's share, which
    // sets the wall time, close to the mean.
    w.data.l = args.tiny ? 24 : 64;
    w.data.views = args.tiny ? 16 : 384;
    w.refine.r_map = static_cast<double>(w.data.l) / 8.0;
    w.refine.passes_per_level = 1;
    w.err_band_deg = 1.0;  // introduced at a median of 0.71 deg
  } else {
    // Large l, one coarse level: the padded spectrum, its all-gather,
    // stack reads, view FFTs and step C dominate; matching is small.
    w.data.l = args.tiny ? 32 : 128;
    w.data.views = args.tiny ? 32 : 256;
    w.refine.levels = {Level{1.0, 3, 1.0, 3}};
    w.refine.r_map = static_cast<double>(w.data.l) / 8.0;
    w.err_band_deg = 0.9;  // introduced at a median of 0.61 deg
    w.setups = 7;
  }
  if (args.tiny) {
    w.setups = 1;
    w.err_band_deg = 15.0;
  }
  return w;
}

CycleFiles files_in(const fs::path& dir) {
  fs::create_directories(dir);
  return CycleFiles{(dir / "map.porm").string(), (dir / "views.shards").string(),
                    (dir / "orient_in.txt").string(),
                    (dir / "orient_out.txt").string(),
                    (dir / "next_map.porm").string()};
}

/// Seconds a cycle's layers account for (each the slowest rank's share
/// of that layer, as the paper's tables report steps).
struct CycleLayers {
  double dft = 0, tables = 0, distribute = 0, fft = 0, orient = 0, center = 0;
  double orient_busy = 0;  ///< summed over ranks
  double recon = 0, fsc = 0;
  [[nodiscard]] double sum() const {
    return dft + tables + distribute + fft + orient + center + recon + fsc;
  }
};

double max_over_ranks(const CycleOutcome& c, const std::string& span,
                      bool use_max_field = false) {
  double best = 0.0;
  for (const RankLedger& r : c.ranks) {
    const auto it = r.spans.find(span);
    if (it == r.spans.end()) continue;
    best = std::max(best, use_max_field ? it->second.max_s : it->second.total_s);
  }
  return best;
}

CycleLayers layers_of(const CycleOutcome& c) {
  CycleLayers L;
  L.dft = max_over_ranks(c, "step.3D DFT");
  L.tables = max_over_ranks(c, "matcher.table_build");
  L.distribute = max_over_ranks(c, "step.Read image");
  L.fft = max_over_ranks(c, "step.FFT analysis");
  L.orient = max_over_ranks(c, "step.Orientation refinement");
  L.center = max_over_ranks(c, "step.Center refinement");
  for (const RankLedger& r : c.ranks) {
    const auto it = r.spans.find("step.Orientation refinement");
    if (it != r.spans.end()) L.orient_busy += it->second.total_s;
  }
  L.recon = c.recon_s;
  L.fsc = c.fsc_s;
  return L;
}

double counter(const std::map<std::string, std::uint64_t>& m,
               const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

/// `leg`: run inside cycle_paper's traced run, which keeps only the
/// serve.*, journal.* and checkpoint.* figures — one set-up, and no
/// refinement-layer figures or kernel probe.
RunResult run_serve_workload(const Args& args, bool leg = false);

RunResult run_cycle_workload(const Args& args) {
  const CycleWorkload w = cycle_workload(args);
  const fs::path root = args.workdir;
  RunResult run;

  // Set-up: phantom, views, sharded stack, map and orientation file.
  // The first set-up makes the inputs every cycle reads.  The others are
  // spread between the cycles (two after each), so that setup_s samples
  // the whole run rather than its first seconds.
  std::vector<double> setup_s;
  Dataset data;
  CycleFiles files;
  const auto set_up = [&](const fs::path& dir) {
    const auto t0 = Clock::now();
    Dataset d = simulate(w.data);
    const CycleFiles f = files_in(dir);
    write_inputs(d, f);
    setup_s.push_back(since(t0));
    if (setup_s.size() == 1) {
      data = std::move(d);
      files = f;
    } else {
      fs::remove_all(dir);
    }
  };
  const auto spare_set_ups = [&](std::size_t n) {
    for (; n > 0 && setup_s.size() < static_cast<std::size_t>(w.setups); --n) {
      set_up(root / "spare-setup");
    }
  };
  set_up(root / "inputs");
  Values start;
  add_accuracy(start, data.initial, data.truth, w.data.asymmetric);

  // Every cycle refines the same inputs, so every cycle must lose no
  // view, quarantine none, and repeat the first cycle bitwise.
  std::vector<ViewOutcome> first_results;
  const auto check = [&](const CycleOutcome& c) {
    run.attempted += data.views.size();
    std::uint64_t bad = 0;
    for (const ViewOutcome& r : c.results) bad += r.quarantined != 0;
    if (c.results.size() != data.views.size() ||
        c.written.size() != data.views.size()) {
      run.fail(data.views.size(), "cycle lost views");
    } else if (bad > 0) {
      run.fail(bad, "cycle quarantined " + std::to_string(bad) + " views");
    } else if (first_results.empty()) {
      first_results = c.results;
    } else if (c.results != first_results) {
      run.fail(data.views.size(), "cycle not bitwise repeatable");
    }
  };

  // An unmeasured first cycle fills the FFT plan and page caches; its
  // outputs are the ones checked against the phantom truth.
  {
    const CycleOutcome warm = run_cycle(files, w.refine);
    check(warm);
    add_accuracy(run.values, warm.written, data.truth, w.data.asymmetric);
    run.values["fsc05_px"] = warm.fsc05_px;
    const double err = run.values["orient_err_mean_deg"];
    if (!(err <= w.err_band_deg)) {
      run.fail(data.views.size(),
               "orientation error " + std::to_string(err) +
                   " deg outside band [0, " + std::to_string(w.err_band_deg) +
                   "]");
    }
    if (!(warm.fsc05_px > 1.0)) run.fail(1, "FSC 0.5 crossing collapsed");
  }
  spare_set_ups(2);

  // Measured cycles, for --seconds of cycle time.  Traced runs alternate
  // obs timing off/on.
  struct Sample {
    double cycle_s;
    bool traced;
    CycleOutcome outcome;
  };
  std::vector<Sample> samples;
  double cycles_s = 0.0;
  while (samples.empty() || cycles_s < args.seconds ||
         (args.trace && samples.size() < 2)) {
    const bool traced = args.trace && traced_slot(samples.size());
    set_tracing(traced);
    const auto t0 = Clock::now();
    CycleOutcome c = run_cycle(files, w.refine);
    const double cycle_s = since(t0);
    set_tracing(false);
    check(c);
    samples.push_back(Sample{cycle_s, traced, std::move(c)});
    cycles_s += cycle_s;
    spare_set_ups(2);
  }
  spare_set_ups(static_cast<std::size_t>(w.setups));
  std::fprintf(stderr, "perfbench %s: %zu set-ups, %.3f s median (%.3f-%.3f)\n",
               args.workload.c_str(), setup_s.size(), median(setup_s),
               *std::min_element(setup_s.begin(), setup_s.end()),
               *std::max_element(setup_s.begin(), setup_s.end()));

  Values& v = run.values;
  std::vector<double> untraced, traced, refine_s;
  for (const Sample& s : samples) {
    (s.traced ? traced : untraced).push_back(s.cycle_s);
    if (!s.traced) refine_s.push_back(s.outcome.refine_s);
  }
  const double measured = std::accumulate(untraced.begin(), untraced.end(), 0.0);
  v["setup_s"] = median(setup_s);
  v["cycle_s"] = median(untraced);
  v["jobs_per_s"] = ratio(static_cast<double>(untraced.size()), measured);
  v["job_latency_p50_s"] = median(refine_s);
  v["job_latency_p99_s"] = quantile(refine_s, 0.99);

  if (args.trace) {
    // Layer figures from the traced cycle closest to the traced median.
    const double traced_median = median(traced);
    const Sample* pick = nullptr;
    for (const Sample& s : samples) {
      if (s.traced && (pick == nullptr ||
                       std::fabs(s.cycle_s - traced_median) <
                           std::fabs(pick->cycle_s - traced_median))) {
        pick = &s;
      }
    }
    const CycleOutcome& c = pick->outcome;
    const CycleLayers L = layers_of(c);
    const double cycle_s = pick->cycle_s;

    std::vector<double> sweeps;
    std::uint64_t sweep_bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const ReadSweep sweep = read_sweep(files.stack);
      sweeps.push_back(sweep.seconds);
      sweep_bytes = sweep.bytes;
    }
    v["stream.read_s"] = median(sweeps);
    v["stream.read_gb_per_s"] =
        ratio(static_cast<double>(sweep_bytes) * 1e-9, median(sweeps));
    const double hits = counter(c.counters, "stream.prefetch.hits");
    const double stalls = counter(c.counters, "stream.prefetch.stalls");
    v["stream.prefetch_stall_frac"] = ratio(stalls, hits + stalls);
    const auto resident = c.gauges.find("stream.resident_bytes");
    v["stream.resident_peak_mb"] =
        resident == c.gauges.end() ? 0.0 : resident->second / (1 << 20);
    v["stream.distribute_s"] = L.distribute;

    v["fft.map_dft_s"] = L.dft;
    v["matcher.table_build_s"] = L.tables;
    v["fft.view_analysis_s"] = L.fft;
    const double plan_hits = counter(c.counters, "fft.plan_cache.hits");
    v["fft.plan_cache_hit_frac"] =
        ratio(plan_hits, plan_hits + counter(c.counters, "fft.plan_cache.misses"));

    // The fixed kernel probe: the first views at their refined poses.
    const std::size_t probe = std::min<std::size_t>(16, data.views.size());
    std::vector<View> probe_views(data.views.begin(),
                                  data.views.begin() + probe);
    std::vector<Orientation> probe_at;
    for (std::size_t i = 0; i < probe; ++i) {
      probe_at.push_back(c.results[i].orientation);
    }
    const double kernel_ns =
        matcher_kernel_ns(data.map, w.refine, probe_views, probe_at, 20);
    const double matchings = static_cast<double>(c.matchings);
    v["matcher.orient_s"] = L.orient;
    v["matcher.matchings"] = matchings;
    v["matcher.ns_per_matching"] = ratio(L.orient_busy * 1e9, matchings);
    v["matcher.kernel_ns"] = kernel_ns;
    v["matcher.overhead_frac"] =
        1.0 - ratio(matchings * kernel_ns * 1e-9, L.orient_busy);
    v["window.slides"] = static_cast<double>(c.slides);
    const double wh = counter(c.counters, "window.cache_hits");
    v["window.cache_hit_frac"] =
        ratio(wh, wh + counter(c.counters, "window.cache_misses"));
    v["refiner.view_max_s"] = max_over_ranks(c, "refiner.view", true);
    v["center.refine_s"] = L.center;
    double evals = 0.0;
    for (const ViewOutcome& r : c.results) {
      evals += static_cast<double>(r.center_evals);
    }
    v["center.evals"] = evals;
    v["recon.s"] = L.recon;
    v["fsc.s"] = L.fsc;

    v["vmpi.sent_bytes"] = static_cast<double>(c.vmpi_bytes);
    v["vmpi.sent_messages"] = static_cast<double>(c.vmpi_messages);
    std::vector<double> busy;
    for (const RankLedger& r : c.ranks) {
      double b = r.recon_busy_s;
      for (const char* step : {"step.3D DFT", "step.Read image",
                               "step.FFT analysis",
                               "step.Orientation refinement",
                               "step.Center refinement"}) {
        const auto it = r.spans.find(step);
        if (it != r.spans.end()) b += it->second.total_s;
      }
      busy.push_back(b);
    }
    v["vmpi.rank_imbalance"] =
        ratio(*std::max_element(busy.begin(), busy.end()), mean(busy));
    v["vmpi.efficiency"] = ratio(std::accumulate(busy.begin(), busy.end(), 0.0),
                                 static_cast<double>(busy.size()) * cycle_s);

    v["trace.overhead_frac"] = ratio(median(traced), median(untraced)) - 1.0;
    v["cycle.unattributed_frac"] = 1.0 - ratio(L.sum(), cycle_s);
    v["cycle.traced_s"] = cycle_s;

    // The journaled service is too sensitive to a shared host's load to
    // be a gated workload of its own; its layers ride along here, from a
    // short traced serve_journal run after the cycles.
    if (args.workload == "cycle_paper") {
      Args serve_args = args;
      serve_args.workload = "serve_journal";
      serve_args.seconds = 3.0;
      serve_args.workdir = (root / "serve").string();
      fs::create_directories(serve_args.workdir);
      const RunResult serve = run_serve_workload(serve_args, true);
      for (const auto& [name, value] : serve.values) {
        for (const char* layer : {"serve.", "journal.", "checkpoint."}) {
          if (name.rfind(layer, 0) == 0) v[name] = value;
        }
      }
      run.attempted += serve.attempted;
      run.failed += serve.failed;
      run.problems.insert(run.problems.end(), serve.problems.begin(),
                          serve.problems.end());
    }
  }
  v["peak_rss_mb"] = peak_rss_mib();

  std::fprintf(stderr,
               "perfbench %s: %zu cycles, cycle_s median %.3f (untraced "
               "n=%zu), orientation error %.3f deg (initial %.3f deg)\n",
               args.workload.c_str(), samples.size(), median(untraced),
               untraced.size(), v["orient_err_mean_deg"],
               start["orient_err_mean_deg"]);
  return run;
}

// ---- serve workload ----------------------------------------------------

struct ServeWorkload {
  DatasetSpec data;
  RefineSettings refine;
  std::size_t clients = 4;  ///< closed-loop jobs in flight
  std::size_t workers = 4;
  double err_band_deg = 0.0;
  int setups = 5;
};

ServeWorkload serve_workload(const Args& args) {
  ServeWorkload w;
  w.data.seed = args.seed;
  // Small jobs of an asymmetric particle (an icosahedral one is close
  // to a sphere at this size and cannot be oriented), two coarse levels.
  w.data.asymmetric = true;
  w.data.l = args.tiny ? 16 : 32;
  w.data.views = args.tiny ? 20 : 250;  // a multiple of 1 + 2 + 3 + 4
  w.data.snr = 2.0;
  w.data.quantize_deg = 3.0;
  w.data.max_shift_px = 1.0;
  w.refine.levels = {Level{1.0, 3, 1.0, 3}, Level{0.5, 3, 0.5, 3}};
  w.refine.r_map = static_cast<double>(w.data.l) * 5.0 / 16.0;
  w.err_band_deg = 1.5;  // introduced at a median of 1.07 deg
  if (args.tiny) {
    w.setups = 1;
    w.err_band_deg = 15.0;
  }
  return w;
}

/// One job of a pass: `count` consecutive pool views from `first`.
struct JobSpec {
  std::size_t first = 0;
  std::size_t count = 0;
};

struct JobRecord {
  double submit_s = 0.0;
  double latency_s = 0.0;
  bool accepted = false;
  Service::Finished finished;
};

RunResult run_serve_workload(const Args& args, bool leg) {
  ServeWorkload w = serve_workload(args);
  if (leg) w.setups = 1;
  const fs::path root = args.workdir;
  RunResult run;

  // Set-up: the view pool, a journaled service and its model.
  std::vector<double> setup_s;
  Dataset pool;
  std::unique_ptr<Service> service;
  for (int k = 0; k < w.setups; ++k) {
    const fs::path dir = root / ("journal-" + std::to_string(k));
    const auto t0 = Clock::now();
    Dataset d = simulate(w.data);
    auto s = std::make_unique<Service>(w.workers, dir.string());
    s->register_model("phantom", d.map, w.refine);
    setup_s.push_back(since(t0));
    if (k == 0) {
      pool = std::move(d);
      service = std::move(s);
    } else {
      s->shutdown();
      s.reset();
      fs::remove_all(dir);
    }
  }

  // The job mix: the pool cut into equally many jobs of 1, 2, 3 and 4
  // views, in an order drawn from the seed.
  std::vector<JobSpec> jobs;
  {
    std::vector<std::size_t> sizes;
    for (std::size_t k = 0; k < pool.views.size() / 10; ++k) {
      sizes.insert(sizes.end(), {1, 2, 3, 4});
    }
    std::uint64_t state = args.seed * 0x9e3779b97f4a7c15ULL + 1;
    for (std::size_t i = sizes.size(); i > 1; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(sizes[i - 1], sizes[(state >> 33) % i]);
    }
    std::size_t first = 0;
    for (const std::size_t count : sizes) {
      jobs.push_back(JobSpec{first, count});
      first += count;
    }
  }
  const auto job_views = [&](const JobSpec& j) {
    return std::vector<View>(pool.views.begin() + j.first,
                             pool.views.begin() + j.first + j.count);
  };
  const auto job_initial = [&](const JobSpec& j) {
    std::vector<Orientation> out;
    for (std::size_t i = j.first; i < j.first + j.count; ++i) {
      out.push_back(pool.initial[i].orientation);
    }
    return out;
  };

  // One pass serves the whole pool as the job mix through a closed
  // loop of `clients` callers, then reconstructs from the served poses.
  struct Pass {
    bool warmup = false;
    bool traced = false;
    double serve_s = 0.0;
    double fsc_s = 0.0;
    double fsc05 = 0.0;
    std::vector<JobRecord> records;
    std::vector<Pose> served;
    double queue_depth_max = 0.0;
    Counters before, after;
  };
  std::vector<Pass> passes;
  std::mutex depth_mutex;
  const auto run_pass = [&](bool warmup, bool traced) {
    Pass pass;
    pass.warmup = warmup;
    pass.traced = traced;
    set_tracing(pass.traced);
    pass.records.resize(jobs.size());
    pass.before = global_counters();
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < w.clients; ++c) {
      clients.emplace_back([&] {
        double depth_max = 0.0;
        for (std::size_t k = next++; k < jobs.size(); k = next++) {
          const std::vector<View> views = job_views(jobs[k]);
          const std::vector<Orientation> initial = job_initial(jobs[k]);
          JobRecord& rec = pass.records[k];
          const auto s0 = Clock::now();
          const Service::Submitted sub =
              service->submit("client", "phantom", views, initial);
          rec.submit_s = since(s0);
          rec.accepted = sub.accepted;
          if (!sub.accepted) {
            rec.finished.state = sub.admission;
            continue;
          }
          depth_max = std::max(depth_max, global_gauge("serve.queue_depth"));
          rec.finished = service->wait(sub.job);
          rec.latency_s = since(s0);
        }
        const std::lock_guard<std::mutex> lock(depth_mutex);
        pass.queue_depth_max = std::max(pass.queue_depth_max, depth_max);
      });
    }
    for (std::thread& t : clients) t.join();
    pass.serve_s = since(t0);
    pass.after = global_counters();

    // The served poses, then the odd/even FSC from them.
    const auto t1 = Clock::now();
    pass.served = pool.initial;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const auto& results = pass.records[k].finished.results;
      for (std::size_t i = 0; i < results.size() && i < jobs[k].count; ++i) {
        pass.served[jobs[k].first + i] =
            Pose{results[i].orientation, results[i].cx, results[i].cy};
      }
    }
    pass.fsc05 = serial_fsc05_px(pool.views, pass.served);
    pass.fsc_s = since(t1);
    passes.push_back(std::move(pass));
  };

  // An unmeasured first pass warms the service; then measured passes
  // (traced runs alternate obs timing off/on).
  run_pass(true, false);
  const auto t_start = Clock::now();
  for (std::size_t n = 0; n < 2 || since(t_start) < args.seconds; ++n) {
    run_pass(false, args.trace && traced_slot(n));
  }
  set_tracing(false);

  // Serial single-threaded reference of every pool view (outside the
  // timed phase): the bitwise oracle and the refine-busy replay.
  const SerialRefiner serial(pool.map, w.refine);
  std::vector<ViewOutcome> reference;
  std::vector<double> refine_view_s;
  for (std::size_t i = 0; i < pool.views.size(); ++i) {
    const auto t0 = Clock::now();
    reference.push_back(serial.refine(pool.views[i], pool.initial[i].orientation));
    refine_view_s.push_back(since(t0));
  }
  double job_mix_busy = 0.0;  // one pass of the job mix, serially
  for (const JobSpec& j : jobs) {
    for (std::size_t i = j.first; i < j.first + j.count; ++i) {
      job_mix_busy += refine_view_s[i];
    }
  }

  // Correctness: every job done and bitwise equal to the serial run.
  for (const Pass& pass : passes) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const JobRecord& rec = pass.records[k];
      ++run.attempted;
      if (!rec.accepted || !rec.finished.done) {
        run.fail(1, "job ended " + rec.finished.state);
        continue;
      }
      bool same = rec.finished.results.size() == jobs[k].count;
      for (std::size_t i = 0; same && i < jobs[k].count; ++i) {
        same = rec.finished.results[i] == reference[jobs[k].first + i];
      }
      if (!same) run.fail(1, "job differs from the serial refine_view");
    }
  }
  Values acc, start;
  add_accuracy(acc, passes.front().served, pool.truth, w.data.asymmetric);
  add_accuracy(start, pool.initial, pool.truth, w.data.asymmetric);
  std::fprintf(stderr, "perfbench serve_journal: orientation error %.3f deg "
               "(initial %.3f deg)\n",
               acc["orient_err_mean_deg"], start["orient_err_mean_deg"]);
  if (!(acc["orient_err_mean_deg"] <= w.err_band_deg)) {
    run.fail(jobs.size(), "orientation error " +
                              std::to_string(acc["orient_err_mean_deg"]) +
                              " deg outside band");
  }
  if (!(passes.front().fsc05 > 1.0)) run.fail(1, "FSC 0.5 crossing collapsed");

  Values& v = run.values;
  v.insert(acc.begin(), acc.end());
  v["fsc05_px"] = passes.front().fsc05;
  v["setup_s"] = median(setup_s);

  const auto summarize = [&](bool traced, double& serve_s, double& jobs_done,
                             std::vector<double>& latency,
                             std::vector<double>& submit,
                             std::vector<double>& cycle) {
    for (const Pass& p : passes) {
      if (p.warmup || p.traced != traced) continue;
      serve_s += p.serve_s;
      cycle.push_back(p.serve_s + p.fsc_s);
      for (const JobRecord& r : p.records) {
        jobs_done += 1.0;
        latency.push_back(r.latency_s);
        submit.push_back(r.submit_s);
      }
    }
  };
  double serve_s = 0.0, jobs_done = 0.0;
  std::vector<double> latency, submit, cycle;
  summarize(false, serve_s, jobs_done, latency, submit, cycle);
  v["cycle_s"] = median(cycle);
  v["jobs_per_s"] = ratio(jobs_done, serve_s);
  v["job_latency_p50_s"] = median(latency);
  v["job_latency_p99_s"] = quantile(latency, 0.99);
  std::fprintf(stderr,
               "perfbench serve_journal: %zu passes, %.0f untraced jobs, "
               "%.1f jobs/s, p50 %.4f s, p99 %.4f s\n",
               passes.size(), jobs_done, v["jobs_per_s"],
               v["job_latency_p50_s"], v["job_latency_p99_s"]);

  if (args.trace) {
    // Layer figures over the traced passes, per pass of the job mix.
    double t_serve = 0.0, t_jobs = 0.0;
    std::vector<double> t_latency, t_submit, t_cycle;
    summarize(true, t_serve, t_jobs, t_latency, t_submit, t_cycle);
    double depth = 0.0, fsc_s = 0.0, slides = 0.0, evals = 0.0;
    Counters delta;
    for (const Pass& p : passes) {
      if (!p.traced) continue;
      depth = std::max(depth, p.queue_depth_max);
      fsc_s += p.fsc_s;
      for (const auto& [name, value] : p.after.counters) {
        const auto b = p.before.counters.find(name);
        delta.counters[name] +=
            value - (b == p.before.counters.end() ? 0 : b->second);
      }
      for (const auto& [name, span] : p.after.spans) {
        const auto b = p.before.spans.find(name);
        SpanStat& d = delta.spans[name];
        d.total_s += span.total_s -
                     (b == p.before.spans.end() ? 0.0 : b->second.total_s);
        d.max_s = std::max(d.max_s, span.max_s);
      }
      for (const JobRecord& r : p.records) {
        for (const ViewOutcome& o : r.finished.results) {
          slides += o.slides;
          evals += static_cast<double>(o.center_evals);
        }
      }
    }
    const double n = static_cast<double>(t_cycle.size());
    if (!leg) {
      const auto span_total = [&](const std::string& name) {
        const auto it = delta.spans.find(name);
        return it == delta.spans.end() ? 0.0 : it->second.total_s / n;
      };
      const double matchings = counter(delta.counters, "matcher.matchings") / n;
      const double orient_busy = span_total("step.Orientation refinement");

      const std::vector<View> probe_views(
          pool.views.begin(),
          pool.views.begin() + std::min<std::size_t>(16, pool.views.size()));
      std::vector<Orientation> probe_at;
      for (std::size_t i = 0; i < probe_views.size(); ++i) {
        probe_at.push_back(reference[i].orientation);
      }
      const double kernel_ns =
          matcher_kernel_ns(pool.map, w.refine, probe_views, probe_at, 20);

      const double plan_hits = counter(delta.counters, "fft.plan_cache.hits");
      v["fft.view_analysis_s"] = span_total("step.FFT analysis");
      v["fft.plan_cache_hit_frac"] =
          ratio(plan_hits,
                plan_hits + counter(delta.counters, "fft.plan_cache.misses"));
      v["matcher.orient_s"] = orient_busy;
      v["matcher.matchings"] = matchings;
      v["matcher.ns_per_matching"] = ratio(orient_busy * 1e9, matchings);
      v["matcher.kernel_ns"] = kernel_ns;
      v["matcher.overhead_frac"] =
          1.0 - ratio(matchings * kernel_ns * 1e-9, orient_busy);
      v["window.slides"] = slides / n;
      const double wh = counter(delta.counters, "window.cache_hits");
      v["window.cache_hit_frac"] =
          ratio(wh, wh + counter(delta.counters, "window.cache_misses"));
      const auto view_span = delta.spans.find("refiner.view");
      v["refiner.view_max_s"] =
          view_span == delta.spans.end() ? 0.0 : view_span->second.max_s;
      v["center.refine_s"] = span_total("step.Center refinement");
      v["center.evals"] = evals / n;
      v["fsc.s"] = fsc_s / n;
    }

    v["serve.submit_p50_s"] = median(t_submit);
    v["serve.submit_p99_s"] = quantile(t_submit, 0.99);
    v["serve.refine_busy_s"] = job_mix_busy;
    const double capacity = static_cast<double>(w.workers) * t_serve;
    v["serve.worker_util"] = ratio(job_mix_busy * n, capacity);
    v["serve.non_refine_s_per_job"] =
        ratio(capacity - job_mix_busy * n, t_jobs);
    v["serve.sched.steals"] = static_cast<double>(service->steals());
    v["serve.queue_depth_max"] = depth;
    v["journal.fsyncs_per_job"] =
        ratio(counter(delta.counters, "journal.fsyncs"), t_jobs);
    v["checkpoint.writes_per_job"] =
        ratio(counter(delta.counters, "resilience.checkpoint.writes"), t_jobs);

    const std::size_t record_bytes = submission_record_bytes(
        job_views(jobs.front()), job_initial(jobs.front()));
    v["journal.append_durable_s"] = median(journal_append_durable_s(
        (root / "probe-journal").string(), record_bytes, 40));
    v["checkpoint.write_s"] =
        median(checkpoint_write_s((root / "probe.porc").string(), 40));

    // A pass is its serving phase plus the FSC; nothing else runs.
    v["trace.overhead_frac"] =
        ratio(ratio(t_serve, t_jobs), ratio(serve_s, jobs_done)) - 1.0;
    v["serve.pass_s"] = t_serve / n;
    v["cycle.traced_s"] = mean(t_cycle);
    v["cycle.unattributed_frac"] =
        1.0 - ratio(t_serve / n + fsc_s / n, mean(t_cycle));
  }
  service->shutdown();
  v["peak_rss_mb"] = peak_rss_mib();
  return run;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.workload != "cycle_paper" && args.workload != "cycle_wide" &&
        args.workload != "serve_journal") {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    fs::remove_all(args.workdir);
    fs::create_directories(args.workdir);
    set_tracing(false);
    const RunResult run = args.workload == "serve_journal"
                              ? run_serve_workload(args)
                              : run_cycle_workload(args);
    fs::remove_all(args.workdir);
    print_result(run, args.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
