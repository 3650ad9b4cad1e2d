// por/core/matcher.hpp
//
// The matching kernel: "a matching operation consists of two steps:
// (1) construct a cut into the 3D DFT with a given orientation and
// (2) compute the distance between the 2D DFT of the experimental
// view and the cut" (§4).  FourierMatcher fuses the two steps — it
// samples the cut point-by-point inside the r_map disk and accumulates
// the weighted distance without materializing the cut image, which is
// what makes the O(l^2) per matching of §3 achievable.
//
// Hot-path layout (see DESIGN.md §"Matcher data layout"): the inner
// loop runs over an immutable precomputed AnnulusTable (one entry per
// Fourier pixel of the Hermitian half of the [r_min, r_map] ring, with
// radius, transfer and the mirror-folded weight precomputed at
// construction) against the interleaved lattice of the
// spectrum's r_map ball — the cube of the centered 3D DFT that cuts
// inside r_map can read (fft::ball_crop) — through the branch-free
// trilinear kernels of por/simd.  The original scalar
// loop is retained as distance_reference() — the equivalence oracle
// for tests and the baseline for bench/bench_matcher.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "por/em/ctf.hpp"
#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/em/pad.hpp"
#include "por/fft/centering.hpp"
#include "por/metrics/distance.hpp"
#include "por/simd/isa.hpp"

namespace por::obs {
class Counter;
class SpanSeries;
}  // namespace por::obs

namespace por::simd {
struct KernelTable;
}  // namespace por::simd

namespace por::core {

/// Matching configuration shared by refiner, baselines and benches.
struct MatchOptions {
  std::size_t pad = em::kDefaultPad;  ///< spectrum oversampling factor
  double r_map = 0.0;  ///< matching radius in UNPADDED Fourier px (0 = Nyquist)
  double r_min = 0.0;  ///< exclude radii below this (unpadded Fourier px)
  /// Per-pixel distance weight: 1 (uniform) or radius / r_map
  /// (radial).  The matcher's annulus table stores it doubled for every
  /// pixel whose Hermitian mirror it folds in (all but DC), so the
  /// half-disk sum equals this weighting over the whole disk.
  metrics::Weighting weighting = metrics::Weighting::kUniform;

  /// CTF of the micrograph the views came from.  When set, step (e)
  /// corrects each view AND the matcher multiplies every cut sample by
  /// the view's residual signal transfer (|CTF| after phase flipping,
  /// CTF^2/(CTF^2 + 1/snr) after Wiener filtering) so the comparison
  /// is unbiased — comparing an amplitude-attenuated view against a
  /// full-amplitude cut would systematically favour orientations whose
  /// cuts have less power near the CTF zeros.
  std::optional<em::CtfParams> ctf;
  em::CtfCorrection ctf_correction = em::CtfCorrection::kPhaseFlip;
  double wiener_snr = 10.0;
};

/// Flattened precomputed annulus: one entry per Fourier pixel of the
/// Hermitian half of the [r_min, r_map] matching ring on the big x big
/// padded view grid — kv > 0, or kv = 0 and ku > 0, plus DC when
/// r_min = 0.  Views and map are real, so the dropped pixel -k of each
/// pair would add the same term as +k; its share is folded into the
/// weight column instead.  Built once per FourierMatcher; per matching
/// the inner loop walks these arrays instead of re-deriving sqrt radii,
/// ring-membership branches and transfer lerps per pixel.  Stored SoA
/// so the distance loop vectorizes.
struct AnnulusTable {
  std::vector<double> ku;             ///< centered frequency, x component
  std::vector<double> kv;             ///< centered frequency, y component
  std::vector<double> transfer;       ///< cut_transfer(radius) per pixel
  /// Distance weight per pixel with its mirror folded in: 2 x the
  /// MatchOptions::weighting value, 1 x for DC.
  std::vector<double> weight;
  std::vector<std::uint32_t> index;   ///< flat index into big x big spectra

  [[nodiscard]] std::size_t size() const { return ku.size(); }
  [[nodiscard]] bool empty() const { return ku.empty(); }
};

namespace detail {
/// std::atomic is not movable; FourierMatcher is (the refiner adopts
/// matchers by value).  Wrap the matchings counter so the class keeps
/// its defaulted moves while distance() stays safe to call from
/// concurrent scheduler workers.
struct MovableAtomicU64 {
  std::atomic<std::uint64_t> v{0};
  MovableAtomicU64() = default;
  // por-atomic: owner-exclusive — moves happen before the matcher is
  // shared across threads (container growth at setup time)
  MovableAtomicU64(MovableAtomicU64&& o) noexcept
      : v(o.v.load(std::memory_order_relaxed)) {}
  MovableAtomicU64& operator=(MovableAtomicU64&& o) noexcept {
    // por-atomic: owner-exclusive — see the move constructor
    v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
};
}  // namespace detail

/// Matches view spectra against central sections of one density map.
///
/// The matcher holds one copy of the spectrum: the r_map ball of the
/// padded centered 3D DFT (ball(l, options)), as the interleaved
/// lattice every kernel tier reads.  The paper replicates the whole
/// transform on every node; a matching reads only samples inside
/// r_map, so this ball is all that needs replicating.  Construction
/// from a density map computes it serially; core::parallel_refine
/// builds it with the slab-parallel 3D DFT and hands it in.
// CONTRACT: the annulus table's flattened view indices address the
// big x big padded grid, its five columns stay the same length, and on
// the fast path r_max <= c - 0.5 so every trilinear base cell lies
// inside the ball lattice — all enforced by POR_BOUNDS / POR_ENSURE in
// matcher.cpp at construction time (once, not per matching).
class FourierMatcher {
 public:
  /// Build the spectrum ball from a density map (edge l).  Throws
  /// std::invalid_argument on a bad configuration, including an empty
  /// matching annulus (r_min above r_map).
  FourierMatcher(const em::Volume<double>& density_map,
                 const MatchOptions& options);

  /// Adopt an existing spectrum ball: the crop ball(l, options) of the
  /// padded centered 3D DFT (em::centered_fft3(padded, crop) or the
  /// slab-parallel fft::parallel_padded_fft3d), edge
  /// ball(l, options).edge.
  FourierMatcher(em::Volume<em::cdouble> spectrum_ball, std::size_t l,
                 const MatchOptions& options);

  /// The crop of the padded centered spectrum (edge l * options.pad)
  /// that a matcher with these options reads: fft::ball_crop of the
  /// resolved matching radius.  Throws on a bad pad or radius.
  [[nodiscard]] static fft::CubeCrop ball(std::size_t l,
                                          const MatchOptions& options);

  /// The matching radius in padded Fourier px that a matcher with these
  /// options uses: options.r_map (0 = the unpadded Nyquist radius)
  /// times the pad, clamped to the padded Nyquist radius.
  [[nodiscard]] static double padded_matching_radius(
      std::size_t l, const MatchOptions& options);

  FourierMatcher(FourierMatcher&&) noexcept;
  FourierMatcher& operator=(FourierMatcher&&) noexcept;
  FourierMatcher(const FourierMatcher&) = delete;
  FourierMatcher& operator=(const FourierMatcher&) = delete;
  ~FourierMatcher();

  [[nodiscard]] std::size_t edge() const { return l_; }
  [[nodiscard]] const MatchOptions& options() const { return options_; }

  /// Step (d)+(e) for one view: padded centered 2D DFT, CTF-corrected
  /// per options().ctf.  The result is what `distance` expects.
  ///
  /// Box-only contract: the image is big x big (big = l * pad), but
  /// only the bounding box of the r_map disk, [floor(c - r_map),
  /// ceil(c + r_map)]^2 in padded pixels (clamped to the image,
  /// c = floor(big / 2)), is computed — bitwise
  /// correct_ctf(centered_fft2(pad_image(view, pad))) there — and every
  /// pixel outside it is exactly zero.  distance, distance_reference
  /// and center refinement (through annulus().index) read nothing
  /// outside that box; a caller that needs the whole spectrum uses
  /// em::centered_fft2 and em::correct_ctf.
  [[nodiscard]] em::Image<em::cdouble> prepare_view(
      const em::Image<double>& view) const;

  /// The square of the padded view grid that prepare_view computes.
  [[nodiscard]] fft::CubeCrop view_box() const { return view_box_; }

  /// One matching operation: d(F, C_o) over the r_map disk.
  /// Increments the matching counter.  Runs the precomputed-annulus /
  /// SoA fast path over the Hermitian half disk (equivalent to the
  /// full-disk distance_reference within fp rounding, ~1e-15
  /// relative); thread-safe.
  [[nodiscard]] double distance(const em::Image<em::cdouble>& view_spectrum,
                                const em::Orientation& o) const;

  /// The original scalar matching loop over the whole r_map disk:
  /// per-pixel sqrt + ring test + transfer lerp + bounds-checked
  /// complex trilinear fetch.  Retained as the equivalence oracle for
  /// the paper's definition and the bench baseline.  Same matching
  /// counter and same result (to fp tolerance) as distance(); it
  /// counts the whole disk's interpolation fetches, about twice
  /// distance()'s.
  [[nodiscard]] double distance_reference(
      const em::Image<em::cdouble>& view_spectrum,
      const em::Orientation& o) const;

  /// The cut with the view-transfer envelope applied, sampled only on
  /// the matching annulus, in annulus() order — the exact samples
  /// `distance` compares a prepared view against (used by center
  /// refinement and diagnostics).  Reference trilinear arithmetic
  /// (em::interp_trilinear_with), bitwise equal to
  /// em::extract_central_slice of the full spectrum times transfer.
  [[nodiscard]] std::vector<em::cdouble> annulus_cut(
      const em::Orientation& o) const;

  /// Residual signal transfer of a prepared view at `padded_radius`
  /// Fourier pixels from the origin (1 when no CTF is configured).
  [[nodiscard]] double cut_transfer(double padded_radius) const;

  /// Matching-operation counter (total calls to distance()); the
  /// quantity the paper's Tables 1/2 track through the sliding window.
  [[nodiscard]] std::uint64_t matchings() const {
    // por-atomic: monitor — table statistic; a lagging read is fine
    return matchings_.v.load(std::memory_order_relaxed);
  }
  void reset_matchings() const {
    // por-atomic: owner-exclusive — reset only between phases, while no
    // worker is matching
    matchings_.v.store(0, std::memory_order_relaxed);
  }

  /// Matching radius in PADDED Fourier pixels.
  [[nodiscard]] double padded_r_map() const { return padded_r_map_; }

  /// The precomputed matching ring (center refinement reuses it for
  /// its translated-distance loop).
  [[nodiscard]] const AnnulusTable& annulus() const { return annulus_; }

  /// The ISA tier this matcher's kernels were snapshotted at: the
  /// process-wide selection (simd::active_isa()) at construction.
  [[nodiscard]] simd::Isa isa() const { return isa_; }

 private:
  /// Build annulus_ and, from `spectrum_ball`, the interleaved lattice
  /// every kernel tier consumes; record build time + table size.
  void build_tables(const em::Volume<em::cdouble>& spectrum_ball);

  /// Reference trilinear sample of the ball at full-spectrum
  /// coordinates (z, y, x): the crop origin is subtracted from the
  /// integer cell index, zero outside the ball.
  [[nodiscard]] em::cdouble sample_ball(double z, double y, double x) const;

  std::size_t l_;
  MatchOptions options_;
  double padded_r_map_;
  double padded_r_min_;
  fft::CubeCrop ball_;                  ///< the crop the lattice holds
  fft::CubeCrop view_box_;              ///< the square prepare_view computes
  std::vector<double> transfer_table_;  ///< envelope by padded radius px

  // --- precomputed hot-path state (immutable after construction) ----
  em::InterleavedComplexLattice lattice_;  ///< the ball, every tier
  simd::Isa isa_ = simd::Isa::kSse2;   ///< tier snapshotted at construction
  const simd::KernelTable* kernels_ = nullptr;  ///< dispatched hot kernels
  AnnulusTable annulus_;             ///< flattened [r_min, r_map] ring

  mutable detail::MovableAtomicU64 matchings_;

  // Observability handles, resolved once against the registry current
  // on the constructing thread (the owning rank under vmpi):
  //   matcher.matchings       — one increment per distance() call
  //   matcher.interp_fetches  — trilinear spectrum fetches (one bulk
  //                             add per matching: the half disk for
  //                             distance(), the whole disk for
  //                             distance_reference())
  //   matcher.prepare_view    — span series timing step (d)+(e)
  //   matcher.table_build     — span series timing build_tables()
  //   matcher.annulus_pixels  — gauge: entries in the annulus table
  //   simd.matcher_dispatch   — fast-path distance() calls routed
  //                             through the snapshotted kernel table
  //   simd.isa                — gauge published by por/simd selection
  obs::Counter* obs_matchings_;
  obs::Counter* obs_interp_fetches_;
  obs::Counter* obs_simd_dispatch_;
  obs::SpanSeries* obs_prepare_view_;
};

}  // namespace por::core
