// Shared workload builders for the benchmark harnesses.
//
// The paper's data sets (7,917 Sindbis views of 331^2 px; 4,422 reo
// views of 511^2 px) are scaled to run on this host while preserving
// every algorithmic knob: the same four-level schedule, the same
// search ranges per level, CTF correction, center refinement and the
// sliding window.  Scale factors are printed by each harness.
#pragma once

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "por/core/pipeline.hpp"
#include "por/em/ctf.hpp"
#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"

namespace por::bench {

struct Workload {
  std::size_t l = 48;
  em::BlobModel particle;
  em::Volume<double> map;                       // current (reference) map
  std::vector<em::Image<double>> views;         // simulated experimental views
  std::vector<em::Orientation> truth;           // ground-truth orientations
  std::vector<em::Orientation> initial;         // rough initial orientations
  em::CtfParams ctf;
};

struct WorkloadSpec {
  std::size_t l = 48;
  std::size_t view_count = 40;
  double snr = 4.0;           ///< <= 0 disables noise
  bool apply_ctf = false;
  double quantize_deg = 3.0;  ///< initial = truth snapped to this grid
  std::uint64_t seed = 1003;
};

/// A view set of `model` with quantized-truth initial orientations.
inline Workload make_workload(em::BlobModel model, const WorkloadSpec& spec) {
  Workload w;
  w.l = spec.l;
  w.particle = std::move(model);
  w.map = w.particle.rasterize(spec.l);
  w.ctf.pixel_size_a = 2.8;
  w.ctf.defocus_a = 16000.0;

  util::Rng rng(spec.seed);
  for (std::size_t i = 0; i < spec.view_count; ++i) {
    double theta, phi;
    rng.sphere_point(theta, phi);
    const em::Orientation o{em::rad2deg(theta), em::rad2deg(phi),
                            rng.uniform(0.0, 360.0)};
    em::Image<double> view = w.particle.project_analytic(spec.l, o);
    if (spec.apply_ctf) {
      em::Image<em::cdouble> spectrum = em::centered_fft2(view);
      em::apply_ctf(spectrum, w.ctf);
      view = em::centered_ifft2(spectrum);
    }
    if (spec.snr > 0.0) em::add_gaussian_noise(view, spec.snr, rng);
    w.views.push_back(std::move(view));
    w.truth.push_back(o);
    auto quantize = [&](double deg) {
      return spec.quantize_deg * std::round(deg / spec.quantize_deg);
    };
    w.initial.push_back(em::Orientation{quantize(o.theta), quantize(o.phi),
                                        quantize(o.omega)});
  }
  return w;
}

inline Workload sindbis_workload(const WorkloadSpec& spec) {
  em::PhantomSpec phantom;
  phantom.l = spec.l;
  return make_workload(em::make_sindbis_like(phantom), spec);
}

inline Workload reo_workload(const WorkloadSpec& spec) {
  em::PhantomSpec phantom;
  phantom.l = spec.l;
  return make_workload(em::make_reo_like(phantom), spec);
}

inline Workload asymmetric_workload(const WorkloadSpec& spec) {
  em::PhantomSpec phantom;
  phantom.l = spec.l;
  return make_workload(em::make_asymmetric(phantom, 30), spec);
}

/// Step C (core::reconstruct_refined) over the workload's views at
/// the given poses (no centers = all zero) on `ranks` vmpi ranks: the
/// map and the odd/even FSC.
inline core::Reconstruction reconstruct(
    const Workload& w, const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers = {},
    int ranks = 1) {
  std::vector<core::ViewResult> poses(w.views.size());
  for (std::size_t i = 0; i < poses.size(); ++i) {
    poses[i].orientation = orientations[i];
    if (!centers.empty()) {
      std::tie(poses[i].center_x, poses[i].center_y) = centers[i];
    }
  }
  core::Reconstruction out;
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    stream::MemoryViewSource source(w.views);
    core::Reconstruction mine = core::reconstruct_refined(
        comm, w.l, &source, poses, core::RefinerConfig{});
    if (comm.is_root()) out = std::move(mine);
  });
  return out;
}

}  // namespace por::bench
