// perfbench/adapter.cpp — every call the benchmark makes into the por
// library.  See adapter.hpp.
#include "adapter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "por/core/matcher.hpp"
#include "por/core/parallel_refiner.hpp"
#include "por/core/refiner.hpp"
#include "por/em/ctf.hpp"
#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/em/symmetry.hpp"
#include "por/io/map_io.hpp"
#include "por/io/master_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/journal/journal.hpp"
#include "por/metrics/fsc.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/obs/registry.hpp"
#include "por/recon/fourier_recon.hpp"
#include "por/recon/parallel_recon.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/serve/job_record.hpp"
#include "por/serve/service.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"

namespace perfbench {

namespace {

using namespace por;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The simulated microscope every workload images through.
em::CtfParams microscope() {
  em::CtfParams ctf;
  ctf.pixel_size_a = 2.8;
  ctf.defocus_a = 16000.0;
  return ctf;
}

/// Wiener SNR used by step (e) in refinement and in step C.
constexpr double kWienerSnr = 20.0;

core::RefinerConfig make_config(const RefineSettings& settings) {
  core::RefinerConfig config;  // paper_schedule() by default
  if (!settings.levels.empty()) {
    config.schedule.clear();
    for (const Level& level : settings.levels) {
      config.schedule.push_back(core::SearchLevel{
          level.step_deg, level.width, level.center_step_px,
          level.center_width});
    }
  }
  config.match.r_map = settings.r_map;
  config.max_passes_per_level = settings.passes_per_level;
  config.ctf = microscope();
  config.ctf_correction = em::CtfCorrection::kWiener;
  config.wiener_snr = kWienerSnr;
  config.refine_workers = 1;
  return config;
}

SpanStat span_stat(const obs::Snapshot::SpanData& span) {
  return SpanStat{span.count, static_cast<double>(span.total_ns) * 1e-9,
                  static_cast<double>(span.max_ns) * 1e-9};
}

ViewOutcome outcome_of(const core::ViewResult& r) {
  ViewOutcome out;
  out.orientation = r.orientation;
  out.cx = r.center_x;
  out.cy = r.center_y;
  out.distance = r.final_distance;
  out.matchings = r.matchings;
  out.cache_hits = r.cache_hits;
  out.center_evals = r.center_evals;
  out.slides = r.window_slides;
  out.quarantined = r.quarantined;
  return out;
}

/// Step (e) for reconstruction: a Wiener-corrected copy of a raw view.
View ctf_corrected(const View& raw) {
  em::Image<em::cdouble> spectrum = em::centered_fft2(raw);
  em::correct_ctf(spectrum, microscope(), em::CtfCorrection::kWiener,
                  kWienerSnr);
  return em::centered_ifft2(spectrum);
}

/// Views, orientations and centers of one parity class.
struct ReconSet {
  std::vector<View> views;
  std::vector<Orientation> orientations;
  std::vector<std::pair<double, double>> centers;

  void add(const View& v, const Pose& p) {
    views.push_back(v);
    orientations.push_back(p.orientation);
    centers.emplace_back(p.cx, p.cy);
  }
};

}  // namespace

Dataset simulate(const DatasetSpec& spec) {
  em::PhantomSpec phantom;
  phantom.l = spec.l;
  const em::BlobModel particle = spec.asymmetric
                                     ? em::make_asymmetric(phantom, 30)
                                     : em::make_sindbis_like(phantom);
  const em::CtfParams ctf = microscope();

  Dataset data;
  data.l = spec.l;
  data.map = particle.rasterize(spec.l);
  util::Rng rng(spec.seed);
  const auto snap = [&](double deg) {
    return spec.quantize_deg * std::round(deg / spec.quantize_deg);
  };
  for (std::size_t i = 0; i < spec.views; ++i) {
    double theta = 0.0, phi = 0.0;
    rng.sphere_point(theta, phi);
    const Orientation o{em::rad2deg(theta), em::rad2deg(phi),
                        rng.uniform(0.0, 360.0)};
    const double dx = rng.uniform(-spec.max_shift_px, spec.max_shift_px);
    const double dy = rng.uniform(-spec.max_shift_px, spec.max_shift_px);
    em::Image<em::cdouble> spectrum =
        em::centered_fft2(particle.project_analytic(spec.l, o, dx, dy));
    em::apply_ctf(spectrum, ctf);
    View view = em::centered_ifft2(spectrum);
    em::add_gaussian_noise(view, spec.snr, rng);
    data.views.push_back(std::move(view));
    data.truth.push_back(Pose{o, dx, dy});
    data.initial.push_back(
        Pose{Orientation{snap(o.theta), snap(o.phi), snap(o.omega)}, 0.0,
             0.0});
  }
  return data;
}

void write_inputs(const Dataset& data, const CycleFiles& files) {
  stream::write_sharded_stack(files.stack, data.views);
  io::write_map(files.map, data.map);
  std::vector<io::ViewOrientation> records;
  records.reserve(data.initial.size());
  for (std::size_t i = 0; i < data.initial.size(); ++i) {
    records.push_back(io::ViewOrientation{i, data.initial[i].orientation,
                                          data.initial[i].cx,
                                          data.initial[i].cy});
  }
  io::write_orientations(files.orient_in, records, "perfbench initial poses");
}

CycleOutcome run_cycle(const CycleFiles& files,
                       const RefineSettings& settings) {
  const core::RefinerConfig config = make_config(settings);
  // Step C without oversampling: at l = 128 the padded accumulators of
  // four ranks and their reduction would need several GB.
  recon::ReconOptions recon_options;
  recon_options.pad = 1;

  CycleOutcome out;
  out.ranks.resize(static_cast<std::size_t>(settings.ranks));
  std::vector<double> recon_busy(out.ranks.size(), 0.0);

  const vmpi::RunReport traffic =
      vmpi::run(settings.ranks, [&](vmpi::Comm& comm) {
        const bool root = comm.is_root();
        const int rank = comm.rank();

        // Step B: open inputs -> refined orientation file on disk.
        const auto t0 = Clock::now();
        core::ParallelRefineReport report = core::parallel_refine_files(
            comm, files.map, files.stack, files.orient_in, files.orient_out,
            config);
        comm.barrier();
        const double refine_s = since(t0);

        // Step C: every rank reconstructs from its block of the stack at
        // the refined poses; the root writes the next map.
        const auto t1 = Clock::now();
        const auto records = io::read_orientations(files.orient_out);
        const auto source = stream::open_view_source(files.stack);
        const std::size_t m = static_cast<std::size_t>(source->count());
        const std::size_t l = source->nx();
        if (records.size() != m) {
          throw std::runtime_error("run_cycle: orientation file size");
        }
        const std::size_t begin = io::block_begin(m, comm.size(), rank);
        const std::size_t share = io::block_share(m, comm.size(), rank);
        ReconSet all, odd, even;
        View raw(l, l);
        for (std::size_t i = begin; i < begin + share; ++i) {
          source->fetch(i, raw.data());
          const Pose pose{records[i].orientation, records[i].center_x,
                          records[i].center_y};
          const View corrected = ctf_corrected(raw);
          all.add(corrected, pose);
          (i % 2 == 0 ? even : odd).add(corrected, pose);
        }
        const Map next = recon::parallel_fourier_reconstruct(
            comm, l, all.views, all.orientations, all.centers, recon_options);
        if (root) io::write_map(files.next_map, next);
        comm.barrier();
        const double recon_s = since(t1);

        // Odd/even FSC.
        const auto t2 = Clock::now();
        const Map odd_map = recon::parallel_fourier_reconstruct(
            comm, l, odd.views, odd.orientations, odd.centers, recon_options);
        const Map even_map = recon::parallel_fourier_reconstruct(
            comm, l, even.views, even.orientations, even.centers,
            recon_options);
        double fsc05 = 0.0;
        if (root) {
          fsc05 = metrics::crossing_radius(
              metrics::fourier_shell_correlation(odd_map, even_map), 0.5);
        }
        comm.barrier();
        const double fsc_s = since(t2);
        recon_busy[static_cast<std::size_t>(rank)] = recon_s + fsc_s;

        if (!root) return;
        out.refine_s = refine_s;
        out.recon_s = recon_s;
        out.fsc_s = fsc_s;
        out.fsc05_px = fsc05;
        out.matchings = report.total_matchings;
        out.slides = report.total_slides;
        out.results.reserve(report.results.size());
        for (const auto& r : report.results) {
          out.results.push_back(outcome_of(r));
        }
        out.written.reserve(records.size());
        for (const auto& r : records) {
          out.written.push_back(Pose{r.orientation, r.center_x, r.center_y});
        }
        out.counters = report.obs.merged.counters;
        out.gauges = report.obs.merged.gauges;
        for (std::size_t r = 0;
             r < report.obs.per_rank.size() && r < out.ranks.size(); ++r) {
          for (const auto& [name, span] : report.obs.per_rank[r].spans) {
            out.ranks[r].spans[name] = span_stat(span);
          }
        }
      });
  for (std::size_t r = 0; r < out.ranks.size(); ++r) {
    out.ranks[r].recon_busy_s = recon_busy[r];
  }
  out.vmpi_messages = traffic.messages;
  out.vmpi_bytes = traffic.bytes;
  return out;
}

ReadSweep read_sweep(const std::string& stack) {
  const auto t0 = Clock::now();
  const auto source = stream::open_view_source(stack);
  std::vector<double> pixels(source->view_pixels());
  for (std::uint64_t i = 0; i < source->count(); ++i) {
    source->fetch(i, pixels.data());
  }
  ReadSweep sweep;
  sweep.seconds = since(t0);
  sweep.bytes = source->count() * source->view_pixels() * sizeof(double);
  return sweep;
}

double matcher_kernel_ns(const Map& map, const RefineSettings& settings,
                         const std::vector<View>& views,
                         const std::vector<Orientation>& at, int reps) {
  const core::FourierMatcher matcher(map, make_config(settings)
                                              .matcher_options());
  std::vector<em::Image<em::cdouble>> spectra;
  spectra.reserve(views.size());
  for (const View& v : views) spectra.push_back(matcher.prepare_view(v));
  // Per pair, a burst of `reps` matchings stepping omega by 0.01 deg —
  // the neighbourhood a fine search level walks — timed as one batch.
  double sink = 0.0;
  std::vector<double> ns;
  ns.reserve(spectra.size());
  for (std::size_t k = 0; k < spectra.size(); ++k) {
    sink += matcher.distance(spectra[k], at[k]);  // warm caches
    const auto t0 = Clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      Orientation o = at[k];
      o.omega += 0.01 * rep;
      sink += matcher.distance(spectra[k], o);
    }
    ns.push_back(since(t0) * 1e9 / reps);
  }
  if (!std::isfinite(sink) || ns.empty()) {
    throw std::runtime_error("matcher_kernel_ns: non-finite distance");
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

struct SerialRefiner::Impl {
  core::OrientationRefiner refiner;
};

SerialRefiner::SerialRefiner(const Map& map, const RefineSettings& settings)
    : impl_(new Impl{core::OrientationRefiner(map, make_config(settings))}) {}

SerialRefiner::~SerialRefiner() = default;

ViewOutcome SerialRefiner::refine(const View& view,
                                  const Orientation& initial) const {
  return outcome_of(impl_->refiner.refine_view(view, initial));
}

struct Service::Impl {
  explicit Impl(serve::ServiceOptions options) : service(std::move(options)) {}
  serve::RefineService service;
};

Service::Service(std::size_t workers, const std::string& journal_dir) {
  serve::ServiceOptions options;
  options.workers = workers;
  options.journal_dir = journal_dir;
  options.checkpoint_flush_every = 1;
  impl_ = std::make_unique<Impl>(std::move(options));
}

Service::~Service() = default;

void Service::register_model(const std::string& name, const Map& map,
                             const RefineSettings& settings) {
  impl_->service.register_model(name, map, make_config(settings));
}

Service::Submitted Service::submit(const std::string& tenant,
                                   const std::string& model,
                                   const std::vector<View>& views,
                                   const std::vector<Orientation>& initial) {
  serve::JobRequest request;
  request.tenant = tenant;
  request.model = model;
  request.views = views;
  request.initial = initial;
  const serve::SubmitResult result = impl_->service.submit(std::move(request));
  return Submitted{result.accepted(), result.job,
                   serve::to_string(result.admission)};
}

Service::Finished Service::wait(std::uint64_t job) {
  const serve::JobStatus status = impl_->service.wait(job);
  Finished finished;
  finished.done = status.state == serve::JobState::kDone;
  finished.state = serve::to_string(status.state);
  finished.results.reserve(status.results.size());
  for (const auto& r : status.results) {
    finished.results.push_back(outcome_of(r));
  }
  return finished;
}

std::uint64_t Service::steals() const {
  return impl_->service.scheduler().steals();
}

void Service::shutdown() { impl_->service.shutdown(); }

std::size_t submission_record_bytes(const std::vector<View>& views,
                                    const std::vector<Orientation>& initial) {
  serve::SubmittedJob job;
  job.job = 1;
  job.tenant = "client-0";
  job.model = "phantom";
  job.views = views;
  job.initial = initial;
  return serve::encode_submitted(job).size();
}

std::vector<double> journal_append_durable_s(const std::string& dir,
                                             std::size_t bytes, int appends) {
  journal::Journal journal(dir);
  const std::string payload(bytes, 'x');
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(appends));
  for (int i = 0; i < appends; ++i) {
    const auto t0 = Clock::now();
    journal.append(1, payload, true);
    seconds.push_back(since(t0));
  }
  return seconds;
}

std::vector<double> checkpoint_write_s(const std::string& path, int records) {
  resilience::CheckpointWriter writer(path, 1);
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(records));
  for (int i = 0; i < records; ++i) {
    resilience::CheckpointRecord record;
    record.view_index = static_cast<std::uint64_t>(i);
    const auto t0 = Clock::now();
    writer.append(record);
    seconds.push_back(since(t0));
  }
  return seconds;
}

double serial_fsc05_px(const std::vector<View>& views,
                       const std::vector<Pose>& poses) {
  ReconSet odd, even;
  for (std::size_t i = 0; i < views.size(); ++i) {
    (i % 2 == 0 ? even : odd).add(ctf_corrected(views[i]), poses[i]);
  }
  const Map odd_map =
      recon::fourier_reconstruct(odd.views, odd.orientations, odd.centers);
  const Map even_map =
      recon::fourier_reconstruct(even.views, even.orientations, even.centers);
  return metrics::crossing_radius(
      metrics::fourier_shell_correlation(odd_map, even_map), 0.5);
}

std::vector<double> orientation_errors_deg(
    const std::vector<Orientation>& estimated,
    const std::vector<Orientation>& truth, bool asymmetric) {
  return metrics::orientation_errors_deg(
      estimated, truth,
      asymmetric ? em::SymmetryGroup::identity()
                 : em::SymmetryGroup::icosahedral());
}

void set_tracing(bool on) { obs::set_enabled(on); }

Counters global_counters() {
  const obs::Snapshot snapshot = obs::global_registry().snapshot();
  Counters out;
  out.counters = snapshot.counters;
  for (const auto& [name, span] : snapshot.spans) {
    out.spans[name] = span_stat(span);
  }
  return out;
}

double global_gauge(const std::string& name) {
  return obs::global_registry().gauge(name).value();
}

}  // namespace perfbench
