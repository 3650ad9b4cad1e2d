#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <optional>
#include <utility>
#include <vector>

#include "por/core/center_refine.hpp"
#include "por/core/matcher.hpp"
#include "por/em/projection.hpp"
#include "por/obs/registry.hpp"
#include "por/simd/isa.hpp"
#include "por/util/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using por::core::FourierMatcher;
using por::core::MatchOptions;
using por::test::small_phantom;

MatchOptions options_for(std::size_t l) {
  MatchOptions options;
  options.r_map = static_cast<double>(l) / 2.0 - 2.0;
  return options;
}

TEST(Matcher, TrueOrientationBeatsPerturbations) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> map = model.rasterize(l);
  const FourierMatcher matcher(map, options_for(l));

  const Orientation truth{48.0, 160.0, 72.0};
  const auto spectrum =
      matcher.prepare_view(model.project_analytic(l, truth));
  const double at_truth = matcher.distance(spectrum, truth);
  for (double delta : {2.0, 5.0, 15.0}) {
    for (int axis = 0; axis < 3; ++axis) {
      Orientation perturbed = truth;
      if (axis == 0) perturbed.theta += delta;
      if (axis == 1) perturbed.phi += delta;
      if (axis == 2) perturbed.omega += delta;
      EXPECT_GT(matcher.distance(spectrum, perturbed), at_truth)
          << "axis " << axis << " delta " << delta;
    }
  }
}

TEST(Matcher, DistanceDecreasesMonotonicallyTowardTruth) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const FourierMatcher matcher(model.rasterize(l), options_for(l));
  const Orientation truth{70.0, 40.0, 150.0};
  const auto spectrum =
      matcher.prepare_view(model.project_analytic(l, truth));
  double previous = matcher.distance(
      spectrum, Orientation{truth.theta + 12.0, truth.phi, truth.omega});
  for (double delta : {8.0, 4.0, 2.0, 0.5}) {
    const double d = matcher.distance(
        spectrum, Orientation{truth.theta + delta, truth.phi, truth.omega});
    EXPECT_LT(d, previous) << "delta " << delta;
    previous = d;
  }
}

TEST(Matcher, CountsMatchingOperations) {
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const FourierMatcher matcher(model.rasterize(l), options_for(l));
  const auto spectrum =
      matcher.prepare_view(model.project_analytic(l, {10, 20, 30}));
  EXPECT_EQ(matcher.matchings(), 0u);
  (void)matcher.distance(spectrum, {10, 20, 30});
  (void)matcher.distance(spectrum, {11, 20, 30});
  EXPECT_EQ(matcher.matchings(), 2u);
  matcher.reset_matchings();
  EXPECT_EQ(matcher.matchings(), 0u);
}

TEST(Matcher, SmallerRmapMeansSmallerDistanceValues) {
  // With fewer coefficients the normalized sum shrinks — and the
  // reduction in work is the paper's r_map trick.
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 10);
  const Volume<double> map = model.rasterize(l);
  MatchOptions wide = options_for(l);
  MatchOptions narrow = wide;
  narrow.r_map = 3.0;
  const FourierMatcher matcher_wide(map, wide);
  const FourierMatcher matcher_narrow(map, narrow);
  const Orientation truth{30, 30, 30};
  const auto spectrum =
      matcher_wide.prepare_view(model.project_analytic(l, truth));
  const Orientation off{45, 30, 30};
  EXPECT_LT(matcher_narrow.distance(spectrum, off),
            matcher_wide.distance(spectrum, off));
}

/// The annulus cut laid back onto the big x big grid (zero elsewhere),
/// for comparisons against full-plane metrics.  The annulus holds the
/// Hermitian half of the ring, so each sample's conjugate also goes to
/// its mirror pixel (2c - y, 2c - x): the image carries the whole cut.
Image<cdouble> cut_image(const FourierMatcher& matcher, const Orientation& o) {
  const std::size_t big = matcher.edge() * matcher.options().pad;
  const std::size_t c = big / 2;
  Image<cdouble> image(big, big);
  const std::vector<cdouble> cut = matcher.annulus_cut(o);
  for (std::size_t i = 0; i < cut.size(); ++i) {
    const std::size_t y = matcher.annulus().index[i] / big;
    const std::size_t x = matcher.annulus().index[i] % big;
    image(2 * c - y, 2 * c - x) = std::conj(cut[i]);
    image(y, x) = cut[i];
  }
  return image;
}

TEST(Matcher, CutMatchesExtractCentralSlice) {
  // The matcher samples its spectrum ball with the reference trilinear
  // arithmetic, so every annulus sample carries exactly the bits of the
  // full spectrum's central slice (times the transfer, with a CTF).
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const Volume<double> map = model.rasterize(l);
  for (const bool with_ctf : {false, true}) {
    SCOPED_TRACE(with_ctf ? "with CTF" : "without CTF");
    MatchOptions options = options_for(l);
    options.r_map = 5.0;  // a ball well inside the padded cube
    if (with_ctf) options.ctf = CtfParams{};
    const FourierMatcher matcher(map, options);
    const Orientation o{25, 75, 125};
    const Image<cdouble> direct =
        extract_central_slice(centered_fft3(pad_volume(map, options.pad)), o);
    const std::vector<cdouble> cut = matcher.annulus_cut(o);
    const core::AnnulusTable& ring = matcher.annulus();
    ASSERT_EQ(cut.size(), ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      cdouble expected = direct.storage()[ring.index[i]];
      if (with_ctf) {
        expected *= matcher.cut_transfer(
            std::sqrt(ring.ku[i] * ring.ku[i] + ring.kv[i] * ring.kv[i]));
      }
      EXPECT_EQ(cut[i], expected) << "annulus pixel " << i;
    }
  }
}

TEST(Matcher, DistanceMatchesManualSliceComparison) {
  // distance() (fused loop) must agree with extracting the cut and
  // calling the metrics function.
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const MatchOptions options = options_for(l);
  const FourierMatcher matcher(model.rasterize(l), options);
  const Orientation view_o{40, 100, 20}, cut_o{42, 100, 20};
  const auto spectrum = matcher.prepare_view(model.project_analytic(l, view_o));
  const auto cut = cut_image(matcher, cut_o);
  metrics::DistanceOptions manual;
  manual.r_max = matcher.padded_r_map();
  EXPECT_NEAR(matcher.distance(spectrum, cut_o),
              metrics::fourier_distance(spectrum, cut, manual), 1e-12);
}

TEST(Matcher, CtfAwareMatcherBeatsNaiveOnCtfData) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> map = model.rasterize(l);
  const Orientation truth{55, 210, 80};

  // Simulate the microscope: project then apply the CTF.
  CtfParams ctf;
  ctf.defocus_a = 18000.0;
  Image<cdouble> damaged_spec =
      centered_fft2(model.project_analytic(l, truth));
  apply_ctf(damaged_spec, ctf);
  const Image<double> damaged = centered_ifft2(damaged_spec);

  MatchOptions aware = options_for(l);
  aware.ctf = ctf;
  aware.ctf_correction = CtfCorrection::kWiener;
  aware.wiener_snr = 100.0;
  const FourierMatcher matcher_aware(map, aware);
  const FourierMatcher matcher_naive(map, options_for(l));

  const auto prepared_aware = matcher_aware.prepare_view(damaged);
  const auto prepared_naive = matcher_naive.prepare_view(damaged);
  EXPECT_LT(matcher_aware.distance(prepared_aware, truth),
            matcher_naive.distance(prepared_naive, truth));
}

TEST(Matcher, CutTransferIsIdentityWithoutCtf) {
  const BlobModel model = small_phantom(8, 4);
  const FourierMatcher matcher(model.rasterize(8), MatchOptions{});
  EXPECT_DOUBLE_EQ(matcher.cut_transfer(0.0), 1.0);
  EXPECT_DOUBLE_EQ(matcher.cut_transfer(5.0), 1.0);
}

TEST(Matcher, CutTransferTracksCtfEnvelope) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 8);
  MatchOptions options = options_for(l);
  CtfParams ctf;
  options.ctf = ctf;
  options.ctf_correction = CtfCorrection::kPhaseFlip;
  const FourierMatcher matcher(model.rasterize(l), options);
  // At the origin the CTF is -amplitude_contrast: |transfer| small.
  EXPECT_NEAR(matcher.cut_transfer(0.0), ctf.amplitude_contrast, 1e-9);
  // Transfer is bounded by 1 everywhere.
  for (double r = 0.0; r < 20.0; r += 0.5) {
    EXPECT_LE(matcher.cut_transfer(r), 1.0 + 1e-12);
    EXPECT_GE(matcher.cut_transfer(r), 0.0);
  }
}

// ---- fast path vs retained scalar reference --------------------------------

void expect_fast_matches_reference(const FourierMatcher& matcher,
                                   const Image<cdouble>& spectrum,
                                   const Orientation& o) {
  const double fast = matcher.distance(spectrum, o);
  const double reference = matcher.distance_reference(spectrum, o);
  const double tol = 1e-12 * std::max(1.0, std::abs(reference));
  EXPECT_NEAR(fast, reference, tol)
      << "orientation (" << o.theta << ", " << o.phi << ", " << o.omega << ")";
}

TEST(Matcher, FastPathMatchesReferenceOverRandomOrientations) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const FourierMatcher matcher(model.rasterize(l), options_for(l));
  const auto spectrum =
      matcher.prepare_view(model.project_analytic(l, {48, 160, 72}));
  util::Rng rng(101);
  for (int i = 0; i < 40; ++i) {
    expect_fast_matches_reference(matcher, spectrum,
                                  por::test::random_orientation(rng));
  }
}

TEST(Matcher, FastPathMatchesReferenceOnLatticeBoundaryOrientations) {
  // Axis-aligned orientations put cut samples exactly ON lattice
  // planes (fractional parts of 0), the edge case where the reference
  // kernel's zero-weight skip branches and the branch-free kernel's
  // zero-pad reads must agree.
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const FourierMatcher matcher(model.rasterize(l), options_for(l));
  const auto spectrum =
      matcher.prepare_view(model.project_analytic(l, {0, 0, 0}));
  for (const Orientation o :
       {Orientation{0, 0, 0}, Orientation{90, 0, 0}, Orientation{180, 0, 0},
        Orientation{90, 90, 0}, Orientation{90, 0, 90},
        Orientation{90, 90, 90}, Orientation{0, 0, 45},
        Orientation{45, 0, 0}}) {
    expect_fast_matches_reference(matcher, spectrum, o);
  }
}

TEST(Matcher, FastPathMatchesReferenceAtAnnulusEdges) {
  // Default r_map (Nyquist: samples graze the lattice boundary) plus a
  // ring with r_min > 0 — the annulus-membership edge cases.
  const std::size_t l = 18;
  const BlobModel model = small_phantom(l, 9);
  const Volume<double> map = model.rasterize(l);
  util::Rng rng(211);

  MatchOptions nyquist;  // r_map = 0 -> Nyquist
  const FourierMatcher matcher_nyquist(map, nyquist);
  MatchOptions ring = options_for(l);
  ring.r_min = 2.5;
  const FourierMatcher matcher_ring(map, ring);

  const Orientation view_o{33, 290, 140};
  const auto spec_n =
      matcher_nyquist.prepare_view(model.project_analytic(l, view_o));
  const auto spec_r =
      matcher_ring.prepare_view(model.project_analytic(l, view_o));
  for (int i = 0; i < 15; ++i) {
    const Orientation o = por::test::random_orientation(rng);
    expect_fast_matches_reference(matcher_nyquist, spec_n, o);
    expect_fast_matches_reference(matcher_ring, spec_r, o);
  }
}

TEST(Matcher, FastPathMatchesReferenceWithCtfAndRadialWeighting) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 12);
  MatchOptions options = options_for(l);
  CtfParams ctf;
  ctf.defocus_a = 18000.0;
  options.ctf = ctf;
  options.ctf_correction = CtfCorrection::kWiener;
  options.wiener_snr = 50.0;
  options.weighting = metrics::Weighting::kRadial;
  const FourierMatcher matcher(model.rasterize(l), options);
  const auto spectrum =
      matcher.prepare_view(model.project_analytic(l, {55, 210, 80}));
  util::Rng rng(307);
  for (int i = 0; i < 15; ++i) {
    expect_fast_matches_reference(matcher, spectrum,
                                  por::test::random_orientation(rng));
  }
}

/// One configuration of the half-disk equivalence sweep.
struct FoldCase {
  std::size_t l, pad;
  double r_min;
  metrics::Weighting weighting;
  std::optional<CtfCorrection> ctf;
};

std::vector<FoldCase> fold_cases() {
  const std::optional<CtfCorrection> ctfs[] = {
      std::nullopt, CtfCorrection::kPhaseFlip, CtfCorrection::kWiener};
  std::vector<FoldCase> cases;
  // l * pad = 32 (even), 15 and 45 (odd).
  for (const auto& [l, pad] : {std::pair<std::size_t, std::size_t>{16, 2},
                               {15, 1},
                               {15, 3}}) {
    for (const double r_min : {0.0, 2.0}) {
      for (const metrics::Weighting w :
           {metrics::Weighting::kUniform, metrics::Weighting::kRadial}) {
        for (const auto& ctf : ctfs) cases.push_back({l, pad, r_min, w, ctf});
      }
    }
  }
  return cases;
}

MatchOptions fold_options(const FoldCase& fc) {
  MatchOptions options;
  options.pad = fc.pad;
  options.r_map = static_cast<double>(fc.l) / 2.0 - 1.5;
  options.r_min = fc.r_min;
  options.weighting = fc.weighting;
  if (fc.ctf) {
    CtfParams ctf;
    ctf.defocus_a = 18000.0;
    options.ctf = ctf;
    options.ctf_correction = *fc.ctf;
  }
  return options;
}

/// A real view: the phantom's projection (off center) plus noise.
Image<double> noisy_view(const BlobModel& model, std::size_t l,
                         const Orientation& o, util::Rng& rng) {
  Image<double> view = model.project_analytic(l, o, 0.6, -0.4);
  for (double& v : view.storage()) v += rng.uniform(-0.5, 0.5);
  return view;
}

::testing::Message fold_trace(const FoldCase& fc) {
  return ::testing::Message()
         << "l " << fc.l << " pad " << fc.pad << " r_min " << fc.r_min
         << " radial " << (fc.weighting == metrics::Weighting::kRadial)
         << " ctf " << (fc.ctf ? static_cast<int>(*fc.ctf) : -1);
}

TEST(Matcher, HalfDiskDistanceMatchesFullDiskReferenceOnEveryTier) {
  // distance() sums the Hermitian half of the ring with each mirror
  // folded into its weight; distance_reference() still walks the whole
  // disk.  Real views, a real map and a radial transfer make the two
  // equal up to rounding on every tier, ring and grid parity.
  // Each tier is pinned process-wide before its matcher is built (the
  // matcher snapshots simd::active_isa() at construction).
  const simd::Isa saved = simd::active_isa();
  util::Rng rng(919);
  for (const FoldCase& fc : fold_cases()) {
    SCOPED_TRACE(fold_trace(fc));
    const BlobModel model = small_phantom(fc.l, 8);
    const Volume<double> map = model.rasterize(fc.l);
    const Image<double> view = noisy_view(model, fc.l, {40, 100, 20}, rng);
    for (const simd::Isa isa : por::test::available_tiers()) {
      SCOPED_TRACE(simd::isa_name(isa));
      simd::force_isa(isa);
      const FourierMatcher matcher(map, fold_options(fc));
      simd::force_isa(saved);
      ASSERT_EQ(matcher.isa(), isa);
      const Image<cdouble> spectrum = matcher.prepare_view(view);
      for (int i = 0; i < 4; ++i) {
        const Orientation o = por::test::random_orientation(rng);
        const double fast = matcher.distance(spectrum, o);
        const double reference = matcher.distance_reference(spectrum, o);
        EXPECT_LE(std::abs(fast - reference), 1e-12 * std::abs(reference))
            << "orientation (" << o.theta << ", " << o.phi << ", " << o.omega
            << ")";
      }
    }
  }
}

TEST(Matcher, CenterRefinementOnHalfRingMatchesFullDiskBruteForce) {
  // refine_center walks the folded half ring; its best distance must
  // equal the translated distance summed over the whole disk against
  // the full central slice, at the center it returns.
  util::Rng rng(929);
  for (const FoldCase& fc : fold_cases()) {
    SCOPED_TRACE(fold_trace(fc));
    const BlobModel model = small_phantom(fc.l, 8);
    const Volume<double> map = model.rasterize(fc.l);
    const MatchOptions options = fold_options(fc);
    const FourierMatcher matcher(map, options);
    const Orientation o{40, 100, 20};
    const Image<cdouble> spectrum =
        matcher.prepare_view(noisy_view(model, fc.l, o, rng));
    const Image<cdouble> slice =
        extract_central_slice(centered_fft3(pad_volume(map, fc.pad)), o);

    const std::size_t big = fc.l * fc.pad;
    const double c = std::floor(static_cast<double>(big) / 2.0);
    const double r_max = matcher.padded_r_map();
    const double r_min = fc.r_min * static_cast<double>(fc.pad);
    const auto brute_force = [&](double dx, double dy) {
      double sum = 0.0;
      for (std::size_t y = 0; y < big; ++y) {
        const double kv = static_cast<double>(y) - c;
        for (std::size_t x = 0; x < big; ++x) {
          const double ku = static_cast<double>(x) - c;
          const double radius = std::sqrt(ku * ku + kv * kv);
          if (radius > r_max || radius < r_min) continue;
          const double angle = 2.0 * std::numbers::pi * (ku * dx + kv * dy) /
                               static_cast<double>(big);
          const cdouble shifted =
              spectrum(y, x) * cdouble(std::cos(angle), std::sin(angle));
          const cdouble cut = matcher.cut_transfer(radius) * slice(y, x);
          const double weight =
              fc.weighting == metrics::Weighting::kRadial ? radius / r_max
                                                          : 1.0;
          sum += weight * std::norm(shifted - cut);
        }
      }
      return sum / static_cast<double>(big * big);
    };

    const std::vector<cdouble> cut = matcher.annulus_cut(o);
    for (const double step : {1.0, 0.25}) {
      const core::CenterResult found =
          core::refine_center(matcher, spectrum, cut, 0.2, -0.1, step);
      const double expected = brute_force(found.dx, found.dy);
      EXPECT_LE(std::abs(found.best_distance - expected),
                1e-12 * std::abs(expected))
          << "step " << step << " center (" << found.dx << ", " << found.dy
          << ")";
    }
  }
}

TEST(Matcher, AnnulusTableMatchesRingMembership) {
  // The table holds the Hermitian half of the [r_min, r_map] ring —
  // kv > 0, or kv = 0 and ku > 0, plus DC when the ring reaches it —
  // each pixel once, with its dropped mirror folded into the weight.
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  for (const double ring_min : {0.0, 1.5}) {
    for (const metrics::Weighting weighting :
         {metrics::Weighting::kUniform, metrics::Weighting::kRadial}) {
      SCOPED_TRACE(::testing::Message()
                   << "r_min " << ring_min << " radial "
                   << (weighting == metrics::Weighting::kRadial));
      MatchOptions options = options_for(l);
      options.r_min = ring_min;
      options.weighting = weighting;
      const FourierMatcher matcher(model.rasterize(l), options);
      const core::AnnulusTable& ring = matcher.annulus();

      const std::size_t big = l * options.pad;
      const double c = std::floor(static_cast<double>(big) / 2.0);
      const double r_max = matcher.padded_r_map();
      const double r_min = options.r_min * static_cast<double>(options.pad);
      std::size_t full = 0;
      for (std::size_t y = 0; y < big; ++y) {
        for (std::size_t x = 0; x < big; ++x) {
          const double radius = std::hypot(static_cast<double>(y) - c,
                                           static_cast<double>(x) - c);
          if (radius <= r_max && radius >= r_min) ++full;
        }
      }
      // Every pixel but DC pairs with its mirror; DC is kept whole.
      EXPECT_EQ(full % 2, ring_min == 0.0 ? 1u : 0u);
      EXPECT_EQ(ring.size(), (full + 1) / 2);

      std::vector<int> seen(big * big, 0);
      for (std::size_t i = 0; i < ring.size(); ++i) {
        ASSERT_LT(ring.index[i], big * big);
        ++seen[ring.index[i]];
        const double ku = ring.ku[i], kv = ring.kv[i];
        EXPECT_EQ(static_cast<double>(ring.index[i] / big) - c, kv);
        EXPECT_EQ(static_cast<double>(ring.index[i] % big) - c, ku);
        const bool dc = ku == 0.0 && kv == 0.0;
        EXPECT_TRUE(kv > 0.0 || (kv == 0.0 && ku > 0.0) || dc)
            << "(ku, kv) = (" << ku << ", " << kv << ")";
        const double radius = std::sqrt(ku * ku + kv * kv);
        EXPECT_LE(radius, r_max + 1e-12);
        EXPECT_GE(radius, r_min - 1e-12);
        const double base =
            weighting == metrics::Weighting::kRadial ? radius / r_max : 1.0;
        EXPECT_EQ(ring.weight[i], (dc ? 1.0 : 2.0) * base);
      }
      for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_LE(seen[i], 1) << "pixel " << i;
      }
    }
  }
}

TEST(Matcher, CutWithCtfMatchesSliceTimesTransfer) {
  // annulus_cut() applies the annulus table's transfer column; it must
  // equal the slice multiplied by cut_transfer(radius) pixel by pixel.
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const Volume<double> map = model.rasterize(l);
  MatchOptions options = options_for(l);
  CtfParams ctf;
  options.ctf = ctf;
  const FourierMatcher matcher(map, options);
  const Orientation o{25, 75, 125};
  Image<cdouble> expected =
      extract_central_slice(centered_fft3(pad_volume(map, options.pad)), o);
  const std::size_t big = expected.nx();
  const double center = std::floor(static_cast<double>(big) / 2.0);
  for (std::size_t y = 0; y < big; ++y) {
    for (std::size_t x = 0; x < big; ++x) {
      const double radius = std::hypot(static_cast<double>(y) - center,
                                       static_cast<double>(x) - center);
      expected(y, x) *= matcher.cut_transfer(radius);
    }
  }
  const std::vector<cdouble> cut = matcher.annulus_cut(o);
  double worst = 0.0;
  for (std::size_t i = 0; i < cut.size(); ++i) {
    worst = std::max(
        worst, std::abs(cut[i] - expected.storage()[matcher.annulus().index[i]]));
  }
  EXPECT_LT(worst, 1e-12);
}

/// The square prepare_view computes, derived here from its documented
/// formula: [floor(c - r), ceil(c + r)] clamped to the padded grid.
fft::CubeCrop disk_box(std::size_t big, double padded_r_map) {
  const double c = std::floor(static_cast<double>(big) / 2.0);
  const long lo =
      std::max<long>(0, static_cast<long>(std::floor(c - padded_r_map)));
  const long hi =
      std::min<long>(static_cast<long>(big) - 1,
                     static_cast<long>(std::ceil(c + padded_r_map)));
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo + 1)};
}

bool same_bits(const cdouble& a, const cdouble& b) {
  return std::memcmp(&a, &b, sizeof(cdouble)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Matcher, PrepareViewIsTheFullTransformOnTheDiskBox) {
  // The pruned step (d)+(e) against the full one: on the r_map disk box
  // every pixel carries the bits of correct_ctf(centered_fft2(pad_image))
  // and every other pixel is exactly zero.  l = 25 with pad 2 puts the
  // input's first row (13) in the pair (12, 13), across the pad
  // boundary; pad 3 at l = 25 leaves a lone zero row (74) at the end.
  util::Rng rng(17);
  const std::optional<CtfCorrection> modes[] = {
      std::nullopt, CtfCorrection::kPhaseFlip, CtfCorrection::kWiener};
  for (const std::size_t l : {24u, 25u}) {
    const BlobModel model = small_phantom(l, 8);
    const Volume<double> map = model.rasterize(l);
    Image<double> view(l, l);
    for (auto& v : view.storage()) v = rng.uniform(-1.0, 1.0);
    for (const std::size_t pad : {1u, 2u, 3u}) {
      const std::size_t big = l * pad;
      if (l == 25 && pad == 2) {
        ASSERT_EQ((big / 2 - l / 2) % 2, 1u);
      }
      for (const auto& mode : modes) {
        for (const double r_min : {0.0, 2.0}) {
          SCOPED_TRACE(::testing::Message()
                       << "l " << l << " pad " << pad << " ctf "
                       << (mode ? static_cast<int>(*mode) : -1) << " r_min "
                       << r_min);
          MatchOptions options;
          options.pad = pad;
          options.r_map = 6.0;
          options.r_min = r_min;
          if (mode) {
            options.ctf = CtfParams{};
            options.ctf_correction = *mode;
          }
          const FourierMatcher matcher(map, options);
          Image<cdouble> full = centered_fft2(pad_image(view, pad));
          if (mode) {
            correct_ctf(full, *options.ctf, *mode, options.wiener_snr);
          }
          const Image<cdouble> pruned = matcher.prepare_view(view);
          const fft::CubeCrop box = disk_box(big, matcher.padded_r_map());
          ASSERT_EQ(matcher.view_box().origin, box.origin);
          ASSERT_EQ(matcher.view_box().edge, box.edge);
          ASSERT_EQ(pruned.ny(), big);
          ASSERT_EQ(pruned.nx(), big);
          std::size_t differing = 0, nonzero_outside = 0;
          for (std::size_t y = 0; y < big; ++y) {
            for (std::size_t x = 0; x < big; ++x) {
              const bool inside =
                  y >= box.origin && y < box.origin + box.edge &&
                  x >= box.origin && x < box.origin + box.edge;
              if (inside) {
                differing += same_bits(pruned(y, x), full(y, x)) ? 0 : 1;
              } else {
                nonzero_outside += same_bits(pruned(y, x), cdouble{}) ? 0 : 1;
              }
            }
          }
          EXPECT_EQ(differing, 0u);
          EXPECT_EQ(nonzero_outside, 0u);

          // What the matcher computes from the spectrum does not move.
          const Orientation o{33, 120, 250};
          EXPECT_TRUE(same_bits(matcher.distance(pruned, o),
                                matcher.distance(full, o)));
          EXPECT_TRUE(same_bits(matcher.distance_reference(pruned, o),
                                matcher.distance_reference(full, o)));
          const std::vector<cdouble> cut = matcher.annulus_cut(o);
          const core::CenterResult a =
              core::refine_center(matcher, pruned, cut, 0.3, -0.2, 0.5);
          const core::CenterResult b =
              core::refine_center(matcher, full, cut, 0.3, -0.2, 0.5);
          EXPECT_TRUE(same_bits(a.dx, b.dx));
          EXPECT_TRUE(same_bits(a.dy, b.dy));
          EXPECT_TRUE(same_bits(a.best_distance, b.best_distance));
          EXPECT_EQ(a.evaluations, b.evaluations);
        }
      }
    }
  }
}

TEST(Matcher, PrepareViewCountsOnlyTheTransformedLines) {
  // l = 32, pad 2: the 64 x 64 padded view has input rows 16..47, i.e.
  // 16 row pairs; the r_map = 8 disk box (c = 32, r = 16) reads the
  // half spectrum columns kx = 0..16 — 17 column lines.  Each line is
  // 64 points: 33 lines against the full r2c transform's 32 + 33.
  const std::size_t l = 32;
  MatchOptions options;
  options.r_map = 8.0;
  const FourierMatcher matcher(small_phantom(l, 8).rasterize(l), options);
  const Image<double> view(l, l, 1.0);
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  (void)matcher.prepare_view(view);
  EXPECT_EQ(registry.counter("fft.nd.points").value(), (16u + 17u) * 64u);
}

TEST(Matcher, RejectsBadConfiguration) {
  const BlobModel model = small_phantom(8, 4);
  const Volume<double> map = model.rasterize(8);
  MatchOptions bad;
  bad.pad = 0;
  EXPECT_THROW((void)FourierMatcher(map, bad), std::invalid_argument);
  MatchOptions negative;
  negative.r_map = -1.0;
  EXPECT_THROW((void)FourierMatcher(map, negative), std::invalid_argument);
}

TEST(Matcher, RejectsEmptyAnnulus) {
  // r_min above r_map leaves no pixel to match: every distance() would
  // be exactly 0 and the sliding window would drift max_slides times to
  // a corner of its range reporting a perfect match (at l = 16, r_map 3,
  // r_min 5 a view started at (10, 20, 30) came back at (1, 11, 21),
  // distance 0, 8 slides).  The constructor refuses the configuration.
  const std::size_t l = 16;
  const Volume<double> map = small_phantom(l, 8).rasterize(l);
  MatchOptions empty;
  empty.r_map = 3.0;
  empty.r_min = 5.0;
  EXPECT_THROW((void)FourierMatcher(map, empty), std::invalid_argument);
  MatchOptions ring = empty;
  ring.r_min = 2.0;  // a proper ring still builds
  EXPECT_GT(FourierMatcher(map, ring).annulus().size(), 0u);
}

TEST(Matcher, RejectsWrongViewSize) {
  const BlobModel model = small_phantom(8, 4);
  const FourierMatcher matcher(model.rasterize(8), MatchOptions{});
  EXPECT_THROW((void)matcher.prepare_view(Image<double>(10, 10)),
               std::invalid_argument);
}

}  // namespace
