// POR_HOT_PATH
//
// distance() is the per-matching kernel driver: steady-state scratch
// is stack arrays only (hot-path-alloc lint; build_tables runs once
// per matcher and is waived where it allocates).
#include "por/core/matcher.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "por/em/interp.hpp"
#include "por/em/projection.hpp"
#include "por/simd/kernels.hpp"
#include "por/util/contracts.hpp"
#include "por/obs/registry.hpp"
#include "por/obs/span.hpp"
#include "por/util/timer.hpp"

namespace por::core {

namespace {

double resolve_padded_radius(double unpadded, std::size_t pad,
                             double fallback) {
  if (unpadded < 0.0) throw std::invalid_argument("matcher: negative radius");
  // por-lint: allow(float-eq) 0.0 is the documented "use default"
  // sentinel for MatchOptions radii, compared exactly by design.
  if (unpadded == 0.0) return fallback;
  return unpadded * static_cast<double>(pad);
}

}  // namespace

double FourierMatcher::padded_matching_radius(std::size_t l,
                                              const MatchOptions& options) {
  if (options.pad < 1) {
    throw std::invalid_argument("FourierMatcher: pad must be >= 1");
  }
  const double nyquist_padded =
      static_cast<double>(l * options.pad) / 2.0 - 1.0;
  return std::min(
      resolve_padded_radius(options.r_map, options.pad, nyquist_padded),
      nyquist_padded);
}

fft::CubeCrop FourierMatcher::ball(std::size_t l, const MatchOptions& options) {
  return fft::ball_crop(l * options.pad, padded_matching_radius(l, options));
}

FourierMatcher::FourierMatcher(const em::Volume<double>& density_map,
                               const MatchOptions& options)
    : FourierMatcher(
          em::centered_fft3(em::pad_volume(density_map, options.pad),
                            ball(density_map.nx(), options)),
          density_map.nx(), options) {
  if (!density_map.is_cube()) {
    throw std::invalid_argument("FourierMatcher: map must be cubic");
  }
}

FourierMatcher::FourierMatcher(em::Volume<em::cdouble> spectrum_ball,
                               std::size_t l, const MatchOptions& options)
    : l_(l),
      options_(options),
      padded_r_map_(padded_matching_radius(l, options)),
      padded_r_min_(options.r_min * static_cast<double>(options.pad)),
      ball_(ball(l, options)),
      obs_matchings_(&obs::current_registry().counter("matcher.matchings")),
      obs_interp_fetches_(
          &obs::current_registry().counter("matcher.interp_fetches")),
      obs_simd_dispatch_(
          &obs::current_registry().counter("simd.matcher_dispatch")),
      obs_prepare_view_(
          &obs::current_registry().span_series("matcher.prepare_view")) {
  if (spectrum_ball.nx() != ball_.edge || !spectrum_ball.is_cube()) {
    throw std::invalid_argument("FourierMatcher: spectrum ball size mismatch");
  }
  const std::size_t big = l_ * options_.pad;

  // Precompute the view-transfer envelope by integer padded radius:
  // what a prepared view's signal amplitude retains relative to the
  // pristine cut after CTF + correction.
  if (options_.ctf) {
    const std::size_t table_size = big / 2 + 2;
    transfer_table_.resize(table_size);
    const double physical_scale =
        1.0 / (static_cast<double>(big) * options_.ctf->pixel_size_a);
    for (std::size_t r = 0; r < table_size; ++r) {
      const double s = static_cast<double>(r) * physical_scale;
      const double c = em::ctf_value(*options_.ctf, s);
      switch (options_.ctf_correction) {
        case em::CtfCorrection::kPhaseFlip:
          transfer_table_[r] = std::abs(c);
          break;
        case em::CtfCorrection::kWiener:
          transfer_table_[r] = c * c / (c * c + 1.0 / options_.wiener_snr);
          break;
      }
    }
  }

  build_tables(spectrum_ball);
}

FourierMatcher::FourierMatcher(FourierMatcher&&) noexcept = default;
FourierMatcher& FourierMatcher::operator=(FourierMatcher&&) noexcept = default;
FourierMatcher::~FourierMatcher() = default;

void FourierMatcher::build_tables(const em::Volume<em::cdouble>& spectrum_ball) {
  util::WallTimer build_timer;
  const std::size_t big = l_ * options_.pad;
  const double c = std::floor(static_cast<double>(big) / 2.0);
  const double r_max = padded_r_map_;
  const double r_min = padded_r_min_;

  // Flatten the [r_min, r_max] ring on its Hermitian half: the views
  // and the map are real and the transfer is radial, so the sample at
  // -k is the conjugate of the one at +k in both the view spectrum and
  // the cut (the trilinear corners of c - q mirror those of c + q, and
  // r_max <= c - 0.5 keeps every mirror inside the ball).  Each term
  // |F(k) - S(k)|^2 of the distance therefore appears twice; keep
  // kv > 0, or kv = 0 and ku > 0, plus DC, and fold the dropped
  // mirror into the weight column (2x, 1x for DC).  Iteration order
  // stays y-major, x-minor over the disk bounding box, as in
  // distance_reference.
  const long lo = std::max<long>(0, static_cast<long>(std::floor(c - r_max)));
  const long hi =
      std::min<long>(static_cast<long>(big) - 1,
                     static_cast<long>(std::ceil(c + r_max)));
  view_box_ = {static_cast<std::size_t>(lo),
               static_cast<std::size_t>(hi - lo + 1)};
  const bool radial = options_.weighting == metrics::Weighting::kRadial;
  const long mid = static_cast<long>(c);
  for (long y = lo; y <= hi; ++y) {
    const double kv = static_cast<double>(y) - c;
    for (long x = lo; x <= hi; ++x) {
      const double ku = static_cast<double>(x) - c;
      if (y < mid || (y == mid && x < mid)) continue;  // the mirror half
      const double radius = std::sqrt(ku * ku + kv * kv);
      if (radius > r_max || radius < r_min) continue;
      const double mirrors = y == mid && x == mid ? 1.0 : 2.0;  // DC: itself
      annulus_.ku.push_back(ku);
      annulus_.kv.push_back(kv);
      annulus_.transfer.push_back(cut_transfer(radius));
      annulus_.weight.push_back(mirrors * (radial ? radius / r_max : 1.0));
      // CONTRACT: every flattened view index must address a pixel of
      // the big x big padded view grid — checked here, once per
      // construction, so distance() can fetch without per-pixel
      // guards.
      POR_BOUNDS(static_cast<std::size_t>(y) * big +
                     static_cast<std::size_t>(x),
                 big * big);
      annulus_.index.push_back(
          static_cast<std::uint32_t>(y) * static_cast<std::uint32_t>(big) +
          static_cast<std::uint32_t>(x));
    }
  }
  POR_ENSURE(annulus_.kv.size() == annulus_.ku.size() &&
                 annulus_.transfer.size() == annulus_.ku.size() &&
                 annulus_.weight.size() == annulus_.ku.size() &&
                 annulus_.index.size() == annulus_.ku.size(),
             "annulus table columns out of sync");
  // An empty ring would make every distance() exactly 0: the sliding
  // window would then walk max_slides times to a corner and report a
  // perfect match.
  if (annulus_.empty()) {
    throw std::invalid_argument(
        "FourierMatcher: empty matching annulus (r_min above r_map)");
  }

  // Snapshot the process-wide dispatched kernel tier (POR_FORCE_ISA or
  // simd::force_isa()) for this instance, so a later force_isa() does
  // not affect it, then build ONLY the lattice layout that tier
  // consumes: split re/im planes for the SSE2 tier, the interleaved
  // copy for the AVX tiers.
  isa_ = simd::active_isa();
  kernels_ = &simd::kernel_table(isa_);
  std::size_t lattice_edge = 0;
  if (kernels_->layout == simd::LatticeLayout::kInterleaved) {
    ilv_ = em::InterleavedComplexLattice(spectrum_ball);
    lattice_edge = ilv_.edge;
  } else {
    soa_ = em::SplitComplexLattice(spectrum_ball);
    lattice_edge = soa_.edge;
  }

  // Radius-vs-lattice invariant, hoisted out of the per-sample loop:
  // every cut sample coordinate is q_component + c with |q_component|
  // <= radius <= r_max, so with r_max <= c - 0.5 every 2x2x2 base cell
  // lies in [0, big-1]^3 (with >= 0.5 px margin against rounding) and
  // the staged cell fetch needs no bounds checks; the same bound puts
  // every annulus pixel's mirror inside the ball, which the half-disk
  // fold above relies on.  The constructor clamps r_map to Nyquist =
  // big/2 - 1 <= c - 0.5, so it holds for every configuration.
  // Shifted by the ball origin, the reachable base cells then satisfy
  // the interp contract: coordinates lie in [c - r_max, c + r_max] (up
  // to rounding), and ball_crop keeps one cell of margin around floor
  // of both ends, so the shifted base cells lie in [0, lattice_edge - 1]
  // and their +1 corners at most in the lattice's zero pad.
  POR_ENSURE(r_max <= c - 0.5 && lattice_edge == ball_.edge,
             "radius-vs-lattice invariant violated: r_max =", padded_r_map_,
             "c =", c, "ball origin =", ball_.origin, "edge =", lattice_edge);

  obs::MetricsRegistry& registry = obs::current_registry();
  registry.gauge("matcher.annulus_pixels")
      .set(static_cast<double>(annulus_.size()));
  registry.span_series("matcher.table_build")
      .record(static_cast<std::uint64_t>(build_timer.seconds() * 1e9));
}

em::cdouble FourierMatcher::sample_ball(double z, double y, double x) const {
  const long origin = static_cast<long>(ball_.origin);
  const long edge = static_cast<long>(ball_.edge);
  const contracts::checked_span<const double> re(soa_.re), im(soa_.im),
      ilv(ilv_.data);
  return em::interp_trilinear_with(z, y, x, [&](long iz, long iy, long ix) {
    iz -= origin;
    iy -= origin;
    ix -= origin;
    if (iz < 0 || iz >= edge || iy < 0 || iy >= edge || ix < 0 ||
        ix >= edge) {
      return em::cdouble{0.0, 0.0};
    }
    // Both lattices share the (edge + 1)-padded cell strides.
    const std::size_t stride_y = ball_.edge + 1;
    const std::size_t cell =
        (static_cast<std::size_t>(iz) * stride_y +
         static_cast<std::size_t>(iy)) * stride_y +
        static_cast<std::size_t>(ix);
    return ilv.empty() ? em::cdouble(re[cell], im[cell])
                       : em::cdouble(ilv[2 * cell], ilv[2 * cell + 1]);
  });
}

double FourierMatcher::cut_transfer(double padded_radius) const {
  if (transfer_table_.empty()) return 1.0;
  const double clamped = std::clamp(
      padded_radius, 0.0, static_cast<double>(transfer_table_.size() - 1));
  const std::size_t lo = static_cast<std::size_t>(std::floor(clamped));
  const std::size_t hi = std::min(lo + 1, transfer_table_.size() - 1);
  const double t = clamped - static_cast<double>(lo);
  return (1.0 - t) * transfer_table_[lo] + t * transfer_table_[hi];
}

em::Image<em::cdouble> FourierMatcher::prepare_view(
    const em::Image<double>& view) const {
  if (view.nx() != l_ || view.ny() != l_) {
    throw std::invalid_argument("prepare_view: view edge mismatch");
  }
  const obs::SpanTimer timer(*obs_prepare_view_);
  em::Image<em::cdouble> spectrum =
      em::padded_centered_fft2(view, options_.pad, view_box_);
  if (options_.ctf) {
    em::correct_ctf(spectrum, *options_.ctf, options_.ctf_correction,
                    options_.wiener_snr, view_box_);
  }
  return spectrum;
}

double FourierMatcher::distance(const em::Image<em::cdouble>& view_spectrum,
                                const em::Orientation& o) const {
  const std::size_t big = l_ * options_.pad;
  if (view_spectrum.nx() != big || view_spectrum.ny() != big) {
    throw std::invalid_argument("distance: view spectrum size mismatch");
  }
  // por-atomic: stat — matching counter; no ordering claims derive from it
  matchings_.v.fetch_add(1, std::memory_order_relaxed);
  obs_matchings_->add();

  const em::Mat3 r = em::rotation_matrix(o);
  const em::Vec3 eu = r * em::Vec3{1, 0, 0};
  const em::Vec3 ev = r * em::Vec3{0, 1, 0};
  const double c = std::floor(static_cast<double>(big) / 2.0);

  const std::size_t n = annulus_.size();
  const simd::KernelTable& kt = *kernels_;
  const bool interleaved = kt.layout == simd::LatticeLayout::kInterleaved;

  // The 2x2x2 fetches land on a rotated plane through the r_map ball
  // (under 1 MiB at l = 64, r_map = 8, pad = 2, so mostly cache-
  // resident), and every pixel's eight corners are a scattered gather.
  // Software-pipeline the loop in blocks through the
  // dispatched kernel pair: the STAGE kernel resolves the NEXT block's
  // cells (q = ku*eu + kv*ev, truncation floor, flat base index —
  // exactly the arithmetic the scalar path's Vec3 + interp_trilinear
  // perform); the SSE2 tier also issues its corner-line prefetches
  // here, while the AVX tiers prefetch a short fixed distance ahead
  // inside their consume loops instead (a whole block's lines overran
  // L1 — see por/simd/kernels_avx512.cpp).  Pixels are processed
  // strictly in annulus order and the consume kernel continues the
  // RUNNING accumulator, so the summation sequence is identical to a
  // straight loop (bit-identical on the SSE2 tier; the AVX tiers
  // differ by FMA/association rounding only — see por/simd/kernels.hpp).
  // Block size trades the stage/consume switch overhead against the
  // staged-coordinate footprint (4 arrays x 2 slots, ~8 KiB at 256):
  // with prefetch moved into the consume loop the block no longer
  // bounds prefetch flight time, and 256 measured faster than 96.
  constexpr std::size_t kBlock = 256;
  std::size_t cell_base[2][kBlock];
  double cell_tz[2][kBlock];
  double cell_ty[2][kBlock];
  double cell_tx[2][kBlock];
  std::size_t last_line = ~std::size_t{0};

  simd::StageBlock sb;
  sb.euz = eu.z;
  sb.euy = eu.y;
  sb.eux = eu.x;
  sb.evz = ev.z;
  sb.evy = ev.y;
  sb.evx = ev.x;
  sb.c = c;
  sb.last_line = &last_line;
  const double* soa_re = nullptr;
  const double* soa_im = nullptr;
  const double* ilv_data = nullptr;
  std::size_t lat_size = 0;
  if (interleaved) {
    ilv_data = ilv_.data.data();
    lat_size = ilv_.cells();
    sb.stride_y = ilv_.stride_y;
    sb.stride_z = ilv_.stride_z;
    sb.pf_a = ilv_data;
    sb.pf_b = nullptr;
    sb.pf_scale = 2;  // doubles per interleaved complex cell
  } else {
    soa_re = soa_.re.data();
    soa_im = soa_.im.data();
    lat_size = soa_.re.size();
    sb.stride_y = soa_.stride_y;
    sb.stride_z = soa_.stride_z;
    sb.pf_a = soa_re;
    sb.pf_b = soa_im;
    sb.pf_scale = 1;
  }
  sb.origin_cell = ball_.origin * (sb.stride_z + sb.stride_y + 1);

  simd::AnnulusBlock ab;
  // std::complex<double> is layout-compatible with double[2]
  // ([complex.numbers]); the kernels read the view as interleaved
  // por-lint: allow(reinterpret-cast) (re, im) doubles, per the above.
  ab.view = reinterpret_cast<const double*>(view_spectrum.data());
  // Without a CTF every transfer is exactly 1.0; a null column tells
  // the kernel to skip the load+multiply — a bit-exact no-op elision.
  // The weight column always applies: it carries the folded mirror.
  const double* transfer_col =
      transfer_table_.empty() ? nullptr : annulus_.transfer.data();

  auto stage = [&](std::size_t start, std::size_t count, std::size_t slot) {
    sb.ku = annulus_.ku.data() + start;
    sb.kv = annulus_.kv.data() + start;
    sb.count = count;
    sb.base = cell_base[slot];
    sb.tz = cell_tz[slot];
    sb.ty = cell_ty[slot];
    sb.tx = cell_tx[slot];
    kt.stage(sb);
  };

  double sum = 0.0;
  std::size_t cur = 0;
  std::size_t cur_count = std::min(kBlock, n);
  stage(0, cur_count, 0);
  for (std::size_t start = 0; start < n;) {
    const std::size_t next_start = start + cur_count;
    const std::size_t next_count =
        next_start < n ? std::min(kBlock, n - next_start) : 0;
    if (next_count > 0) stage(next_start, next_count, cur ^ 1);
    ab.base = cell_base[cur];
    ab.tz = cell_tz[cur];
    ab.ty = cell_ty[cur];
    ab.tx = cell_tx[cur];
    ab.count = cur_count;
    ab.index = annulus_.index.data() + start;
    ab.transfer = transfer_col != nullptr ? transfer_col + start : nullptr;
    ab.weight = annulus_.weight.data() + start;
    sum = interleaved
              ? kt.annulus_ilv(ilv_data, sb.stride_y, sb.stride_z, lat_size,
                               ab, sum)
              : kt.annulus_split(soa_re, soa_im, sb.stride_y, sb.stride_z,
                                 lat_size, ab, sum);
    start = next_start;
    cur_count = next_count;
    cur ^= 1;
  }
  obs_interp_fetches_->add(n);
  obs_simd_dispatch_->add();
  return sum / static_cast<double>(big * big);
}

double FourierMatcher::distance_reference(
    const em::Image<em::cdouble>& view_spectrum, const em::Orientation& o)
    const {
  const std::size_t big = l_ * options_.pad;
  if (view_spectrum.nx() != big || view_spectrum.ny() != big) {
    throw std::invalid_argument("distance: view spectrum size mismatch");
  }
  // por-atomic: stat — matching counter; no ordering claims derive from it
  matchings_.v.fetch_add(1, std::memory_order_relaxed);
  obs_matchings_->add();

  const em::Mat3 r = em::rotation_matrix(o);
  const em::Vec3 eu = r * em::Vec3{1, 0, 0};
  const em::Vec3 ev = r * em::Vec3{0, 1, 0};
  const double c = std::floor(static_cast<double>(big) / 2.0);
  const double r_max = padded_r_map_;
  const double r_min = padded_r_min_;

  // Restrict the loops to the bounding box of the r_map disk: this is
  // where the paper's "the number of operations is reduced
  // accordingly" comes from.
  const long lo = std::max<long>(0, static_cast<long>(std::floor(c - r_max)));
  const long hi =
      std::min<long>(static_cast<long>(big) - 1,
                     static_cast<long>(std::ceil(c + r_max)));

  double sum = 0.0;
  std::uint64_t fetches = 0;
  for (long y = lo; y <= hi; ++y) {
    const double kv = static_cast<double>(y) - c;
    for (long x = lo; x <= hi; ++x) {
      const double ku = static_cast<double>(x) - c;
      const double radius = std::sqrt(ku * ku + kv * kv);
      if (radius > r_max || radius < r_min) continue;
      ++fetches;
      const em::Vec3 q = ku * eu + kv * ev;
      const em::cdouble cut_sample =
          cut_transfer(radius) * sample_ball(q.z + c, q.y + c, q.x + c);
      const em::cdouble diff =
          view_spectrum(static_cast<std::size_t>(y),
                        static_cast<std::size_t>(x)) -
          cut_sample;
      const double weight = options_.weighting == metrics::Weighting::kRadial
                                ? radius / r_max
                                : 1.0;
      sum += weight * std::norm(diff);
    }
  }
  obs_interp_fetches_->add(fetches);
  return sum / static_cast<double>(big * big);
}

// por-lint: allow(hot-path-alloc) one cut per center-refinement pass, not per matching
std::vector<em::cdouble> FourierMatcher::annulus_cut(
    const em::Orientation& o) const {
  const std::size_t big = l_ * options_.pad;
  const em::Mat3 r = em::rotation_matrix(o);
  const em::Vec3 eu = r * em::Vec3{1, 0, 0};
  const em::Vec3 ev = r * em::Vec3{0, 1, 0};
  const double c = std::floor(static_cast<double>(big) / 2.0);
  std::vector<em::cdouble> cut(annulus_.size());  // por-lint: allow(hot-path-alloc) see above
  for (std::size_t i = 0; i < cut.size(); ++i) {
    // em::extract_central_slice's sample point, then the transfer
    // multiplier the full-plane cut applied per pixel.
    const em::Vec3 q = annulus_.ku[i] * eu + annulus_.kv[i] * ev;
    cut[i] = sample_ball(q.z + c, q.y + c, q.x + c);
    if (!transfer_table_.empty()) cut[i] *= annulus_.transfer[i];
  }
  return cut;
}

}  // namespace por::core
