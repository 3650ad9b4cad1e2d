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

FourierMatcher::FourierMatcher(const em::Volume<double>& density_map,
                               const MatchOptions& options)
    : FourierMatcher(
          em::centered_fft3(em::pad_volume(density_map, options.pad)),
          density_map.nx(), options) {
  if (!density_map.is_cube()) {
    throw std::invalid_argument("FourierMatcher: map must be cubic");
  }
}

FourierMatcher::FourierMatcher(em::Volume<em::cdouble> centered_padded_spectrum,
                               std::size_t l, const MatchOptions& options)
    : l_(l),
      options_(options),
      spectrum_(std::move(centered_padded_spectrum)),
      obs_matchings_(&obs::current_registry().counter("matcher.matchings")),
      obs_interp_fetches_(
          &obs::current_registry().counter("matcher.interp_fetches")),
      obs_simd_dispatch_(
          &obs::current_registry().counter("simd.matcher_dispatch")),
      obs_prepare_view_(
          &obs::current_registry().span_series("matcher.prepare_view")) {
  if (options_.pad < 1) {
    throw std::invalid_argument("FourierMatcher: pad must be >= 1");
  }
  const std::size_t big = l_ * options_.pad;
  if (spectrum_.nx() != big || !spectrum_.is_cube()) {
    throw std::invalid_argument("FourierMatcher: spectrum size mismatch");
  }
  // Default r_map: the unpadded Nyquist radius.  Stored in padded px.
  const double nyquist_padded = static_cast<double>(big) / 2.0 - 1.0;
  padded_r_map_ =
      resolve_padded_radius(options_.r_map, options_.pad, nyquist_padded);
  padded_r_map_ = std::min(padded_r_map_, nyquist_padded);
  padded_r_min_ = options_.r_min * static_cast<double>(options_.pad);

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

  build_tables();
}

FourierMatcher::FourierMatcher(FourierMatcher&&) noexcept = default;
FourierMatcher& FourierMatcher::operator=(FourierMatcher&&) noexcept = default;
FourierMatcher::~FourierMatcher() = default;

void FourierMatcher::build_tables() {
  util::WallTimer build_timer;
  const std::size_t big = l_ * options_.pad;
  const double c = std::floor(static_cast<double>(big) / 2.0);
  const double r_max = padded_r_map_;
  const double r_min = padded_r_min_;

  // Per-pixel cut transfer for the big x big padded view grid, shared
  // by the annulus table below and by cut(): one lerp per pixel at
  // construction instead of one per pixel per matching / per cut.
  if (!transfer_table_.empty()) {
    transfer_image_ = em::Image<double>(big, big);
    for (std::size_t y = 0; y < big; ++y) {
      const double kv = static_cast<double>(y) - c;
      for (std::size_t x = 0; x < big; ++x) {
        const double ku = static_cast<double>(x) - c;
        transfer_image_(y, x) = cut_transfer(std::sqrt(ku * ku + kv * kv));
      }
    }
  }

  // Flatten the [r_min, r_max] ring.  Iteration order (y-major,
  // x-minor over the disk bounding box) matches distance_reference, so
  // the fast loop accumulates pixel terms in the identical order.
  const long lo = std::max<long>(0, static_cast<long>(std::floor(c - r_max)));
  const long hi =
      std::min<long>(static_cast<long>(big) - 1,
                     static_cast<long>(std::ceil(c + r_max)));
  const bool radial = options_.weighting == metrics::Weighting::kRadial;
  for (long y = lo; y <= hi; ++y) {
    const double kv = static_cast<double>(y) - c;
    for (long x = lo; x <= hi; ++x) {
      const double ku = static_cast<double>(x) - c;
      const double radius = std::sqrt(ku * ku + kv * kv);
      if (radius > r_max || radius < r_min) continue;
      annulus_.ku.push_back(ku);
      annulus_.kv.push_back(kv);
      annulus_.transfer.push_back(
          transfer_image_.empty()
              ? 1.0
              : transfer_image_(static_cast<std::size_t>(y),
                                static_cast<std::size_t>(x)));
      annulus_.weight.push_back(radial ? radius / r_max : 1.0);
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

  // Snapshot the dispatched kernel tier for this instance (process-
  // wide selection capped by options_.simd), then build ONLY the
  // lattice layout that tier consumes: split re/im planes for the
  // SSE2 tier, the interleaved copy for the AVX tiers.
  isa_ = simd::resolve_isa(options_.simd);
  kernels_ = &simd::kernel_table(isa_);
  std::size_t lattice_edge = 0;
  if (kernels_->layout == simd::LatticeLayout::kInterleaved) {
    ilv_ = em::InterleavedComplexLattice(spectrum_);
    soa_ = em::SplitComplexLattice();
    lattice_edge = ilv_.edge;
  } else {
    soa_ = em::SplitComplexLattice(spectrum_);
    ilv_ = em::InterleavedComplexLattice();
    lattice_edge = soa_.edge;
  }

  // Radius-vs-lattice guard, hoisted out of the per-sample loop: every
  // cut sample coordinate is q_component + c with |q_component| <=
  // radius <= r_max, so when r_max <= c - 0.5 every 2x2x2 base cell
  // lies in [0, big-1]^3 (with >= 0.5 px margin against rounding) and
  // the staged cell fetch needs no bounds checks.  The constructor
  // clamps r_map to Nyquist = big/2 - 1 <= c - 0.5, so this holds for
  // every reachable configuration; the check stays as a defensive
  // fallback to the scalar path.
  fast_path_ = r_max <= c - 0.5 && !annulus_.empty();
  // Hoisted radius-vs-lattice guard: on the fast path every base cell
  // the annulus can reach must satisfy the interp contract.  q + c
  // with |q| <= r_max <= c - 0.5 gives coordinates in
  // [0.5, 2c - 0.5] subset [0, big - 1], whose truncation lies in
  // [0, big - 1] = [0, lattice_edge - 1].
  POR_ENSURE(!fast_path_ || (padded_r_map_ <= c - 0.5 && lattice_edge == big),
             "fast-path guard violated: r_max =", padded_r_map_, "c =", c,
             "edge =", lattice_edge);

  obs::MetricsRegistry& registry = obs::current_registry();
  registry.gauge("matcher.annulus_pixels")
      .set(static_cast<double>(annulus_.size()));
  registry.span_series("matcher.table_build")
      .record(static_cast<std::uint64_t>(build_timer.seconds() * 1e9));
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
      em::centered_fft2(em::pad_image(view, options_.pad));
  if (options_.ctf) {
    em::correct_ctf(spectrum, *options_.ctf, options_.ctf_correction,
                    options_.wiener_snr);
  }
  return spectrum;
}

double FourierMatcher::distance(const em::Image<em::cdouble>& view_spectrum,
                                const em::Orientation& o) const {
  if (!fast_path_) return distance_reference(view_spectrum, o);

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

  // The 2x2x2 fetches land on a rotated plane through a lattice far
  // larger than cache (~34 MiB at L=64 pad=2), so the loop is memory-
  // latency-bound.  Software-pipeline it in blocks through the
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

  simd::AnnulusBlock ab;
  // std::complex<double> is layout-compatible with double[2]
  // ([complex.numbers]); the kernels read the view as interleaved
  // por-lint: allow(reinterpret-cast) (re, im) doubles, per the above.
  ab.view = reinterpret_cast<const double*>(view_spectrum.data());
  // Without a CTF every transfer is exactly 1.0, and with uniform
  // weighting every weight is exactly 1.0; a null column tells the
  // kernel to skip the load+multiply — a bit-exact no-op elision.
  const double* transfer_col =
      transfer_table_.empty() ? nullptr : annulus_.transfer.data();
  const double* weight_col = options_.weighting == metrics::Weighting::kRadial
                                 ? annulus_.weight.data()
                                 : nullptr;

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
    ab.weight = weight_col != nullptr ? weight_col + start : nullptr;
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
          cut_transfer(radius) *
          em::interp_trilinear(spectrum_, q.z + c, q.y + c, q.x + c);
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

em::Image<em::cdouble> FourierMatcher::cut(const em::Orientation& o) const {
  em::Image<em::cdouble> slice = em::extract_central_slice(spectrum_, o);
  if (!transfer_image_.empty()) {
    // One precomputed multiplier per pixel (shared with the annulus
    // table) instead of a hypot + lerp per pixel per cut.
    const std::size_t count = slice.size();
    em::cdouble* out = slice.data();
    const double* t = transfer_image_.data();
    for (std::size_t i = 0; i < count; ++i) out[i] *= t[i];
  }
  return slice;
}

}  // namespace por::core
