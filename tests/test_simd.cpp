// test_simd — the por::simd dispatch layer and the hot paths' zero-
// allocation steady state.
//
// Four concerns, mirroring DESIGN.md §12:
//   1. ISA selection: CPUID detection, POR_FORCE_ISA override (probed
//      in a child process so the once-per-process cache stays honest)
//      and force_isa clamping.
//   2. Kernel equivalence: every compiled tier's trilinear / annulus /
//      butterfly / pointwise kernels against the scalar reference on
//      randomized lattices (boundary cells included).  The SSE2 tier
//      is asserted BIT-identical to em::interp_trilinear_cell; the AVX
//      tiers are held to the 1e-12 FMA-contraction budget.
//   3. End-to-end: per-tier FourierMatcher::distance vs
//      distance_reference.
//   4. Steady state: with global operator new counted, a warmed
//      sliding-window search and the warmed FFT scratch sites make no
//      heap allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <numbers>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "por/core/matcher.hpp"
#include "por/core/sliding_window.hpp"
#include "por/em/grid.hpp"
#include "por/em/interp.hpp"
#include "por/em/phantom.hpp"
#include "por/fft/fft1d.hpp"
#include "por/fft/fftnd.hpp"
#include "por/simd/isa.hpp"
#include "por/simd/kernels.hpp"
#include "por/util/rng.hpp"
#include "test_helpers.hpp"

// Counting global operator new/delete, the oracle for the steady-state
// tests of section 4 (the same probe bench_matcher gates on).  Counting
// is gated so only the probed region pays the relaxed atomic increment.
namespace {
// por-atomic-file: stat — test-local alloc counters; the test thread
// flips the gate, atomicity alone is enough.
std::atomic<bool> g_count_heap{false};
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_heap.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace por;

using por::test::available_tiers;

/// Restore the process-wide tier on scope exit (tests that force_isa
/// must not leak their selection into later tests).
struct IsaGuard {
  simd::Isa saved = simd::active_isa();
  ~IsaGuard() { simd::force_isa(saved); }
};

em::Volume<em::cdouble> random_volume(std::size_t l, std::uint64_t seed) {
  em::Volume<em::cdouble> vol(l);
  util::Rng rng(seed);
  for (auto& v : vol.storage()) {
    v = em::cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  return vol;
}

/// A randomized set of resolved cells: interior bases plus the edge
/// cells whose +1 corners land in the zero pad, plus exact-zero
/// fractional offsets (the bit-exact skip paths).
struct CellSet {
  std::vector<std::size_t> base;
  std::vector<double> tz, ty, tx;
};

CellSet random_cells(const em::SplitComplexLattice& lat, std::size_t count,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  CellSet cells;
  const std::size_t edge = lat.edge;
  for (std::size_t k = 0; k < count; ++k) {
    std::size_t iz, iy, ix;
    if (k % 7 == 0) {
      // Boundary cell: at least one index on the last logical plane.
      iz = edge - 1;
      iy = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * (edge - 1));
      ix = edge - 1;
    } else {
      iz = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * (edge - 1));
      iy = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * (edge - 1));
      ix = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * (edge - 1));
    }
    cells.base.push_back(iz * lat.stride_z + iy * lat.stride_y + ix);
    // Every 11th cell sits exactly on a lattice point (t == 0), the
    // weights-are-exactly-one case the kernels must keep bit-exact.
    const bool exact = k % 11 == 0;
    cells.tz.push_back(exact ? 0.0 : rng.uniform(0.0, 1.0));
    cells.ty.push_back(exact ? 0.0 : rng.uniform(0.0, 1.0));
    cells.tx.push_back(exact ? 0.0 : rng.uniform(0.0, 1.0));
  }
  return cells;
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(1.0, std::abs(b));
}

constexpr double kTol = 1e-12;  ///< the FMA-contraction budget

// ---------------------------------------------------------------------------
// 1. ISA selection
// ---------------------------------------------------------------------------

TEST(SimdIsa, DetectionAndNames) {
  const simd::Isa best = simd::detect_best_isa();
  EXPECT_TRUE(best == simd::Isa::kSse2 || best == simd::Isa::kAvx2 ||
              best == simd::Isa::kAvx512);
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    const auto parsed = simd::parse_isa(simd::isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_EQ(simd::parse_isa("scalar"), simd::Isa::kSse2);
  EXPECT_EQ(simd::parse_isa("avx512f"), simd::Isa::kAvx512);
  EXPECT_FALSE(simd::parse_isa("neon").has_value());
  EXPECT_FALSE(simd::parse_isa("").has_value());
}

TEST(SimdIsa, ForceIsaClampsToAvailable) {
  IsaGuard guard;
  EXPECT_EQ(simd::force_isa(simd::Isa::kSse2), simd::Isa::kSse2);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kSse2);
  EXPECT_EQ(simd::active_kernels().isa, simd::Isa::kSse2);
  // Forcing the widest tier lands on whatever the machine/build can
  // actually run — exactly what kernel_table reports for that request.
  const simd::Isa widest = simd::force_isa(simd::Isa::kAvx512);
  EXPECT_EQ(widest, simd::kernel_table(simd::Isa::kAvx512).isa);
  EXPECT_EQ(simd::active_kernels().isa, widest);
}

// POR_FORCE_ISA is read once per process, so the override is probed in
// a child process: the child (same binary, same test, POR_TEST_EXPECT_ISA
// set) asserts that its first active_isa() matches the environment.
TEST(SimdIsa, EnvOverrideInChildProcess) {
  if (const char* expect = std::getenv("POR_TEST_EXPECT_ISA")) {
    const auto parsed = simd::parse_isa(expect);
    ASSERT_TRUE(parsed.has_value()) << "bad POR_TEST_EXPECT_ISA: " << expect;
    EXPECT_EQ(simd::active_isa(), *parsed);
    return;
  }
#if !defined(__linux__)
  GTEST_SKIP() << "child re-exec reads /proc/self/exe";
#else
  // Resolve our own binary path HERE: a literal /proc/self/exe in the
  // command would be resolved by the std::system shell, i.e. point at
  // /bin/sh rather than this test.
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(len, 0);
  exe[len] = '\0';
  // sse2 is always available, so forcing it must stick exactly.
  const std::string base =
      "POR_TEST_EXPECT_ISA=sse2 POR_FORCE_ISA=sse2 '" + std::string(exe) +
      "' --gtest_filter=SimdIsa.EnvOverrideInChildProcess >/dev/null 2>&1";
  EXPECT_EQ(std::system(base.c_str()), 0);
  // An unknown name is diagnosed and ignored: detection wins.
  const std::string best =
      simd::isa_name(simd::kernel_table(simd::detect_best_isa()).isa);
  const std::string bogus =
      "POR_TEST_EXPECT_ISA=" + best + " POR_FORCE_ISA=bogus '" +
      std::string(exe) +
      "' --gtest_filter=SimdIsa.EnvOverrideInChildProcess >/dev/null 2>&1";
  EXPECT_EQ(std::system(bogus.c_str()), 0);
#endif
}

// ---------------------------------------------------------------------------
// 2. Kernel equivalence vs the scalar reference
// ---------------------------------------------------------------------------

TEST(SimdKernels, TrilinearSplitMatchesReference) {
  const std::size_t edge = 9;
  const em::Volume<em::cdouble> vol = random_volume(edge, 101);
  const em::SplitComplexLattice lat(vol);
  const CellSet cells = random_cells(lat, 2000, 202);
  for (const simd::Isa isa : available_tiers()) {
    const simd::KernelTable& kt = simd::kernel_table(isa);
    ASSERT_NE(kt.trilinear_split, nullptr);
    for (std::size_t k = 0; k < cells.base.size(); ++k) {
      const em::SplitSample ref = em::interp_trilinear_cell(
          lat, cells.base[k], cells.tz[k], cells.ty[k], cells.tx[k]);
      const simd::CellSample got =
          kt.trilinear_split(lat.re.data(), lat.im.data(), lat.stride_y,
                             lat.stride_z, cells.base[k], cells.tz[k],
                             cells.ty[k], cells.tx[k]);
      if (isa == simd::Isa::kSse2) {
        // The baseline tier reproduces the reference BIT-identically.
        EXPECT_EQ(got.re, ref.re) << "tier sse2, cell " << k;
        EXPECT_EQ(got.im, ref.im) << "tier sse2, cell " << k;
      } else {
        EXPECT_LE(rel_diff(got.re, ref.re), kTol)
            << "tier " << simd::isa_name(isa) << ", cell " << k;
        EXPECT_LE(rel_diff(got.im, ref.im), kTol)
            << "tier " << simd::isa_name(isa) << ", cell " << k;
      }
    }
  }
}

TEST(SimdKernels, TrilinearInterleavedMatchesReference) {
  const std::size_t edge = 9;
  const em::Volume<em::cdouble> vol = random_volume(edge, 303);
  const em::SplitComplexLattice split(vol);
  const em::InterleavedComplexLattice ilv(vol);
  const CellSet cells = random_cells(split, 2000, 404);
  for (const simd::Isa isa : available_tiers()) {
    const simd::KernelTable& kt = simd::kernel_table(isa);
    if (kt.trilinear_ilv == nullptr) continue;  // SSE2 tier is split-only
    for (std::size_t k = 0; k < cells.base.size(); ++k) {
      const em::SplitSample ref = em::interp_trilinear_cell(
          split, cells.base[k], cells.tz[k], cells.ty[k], cells.tx[k]);
      const simd::CellSample got = kt.trilinear_ilv(
          ilv.data.data(), ilv.stride_y, ilv.stride_z, cells.base[k],
          cells.tz[k], cells.ty[k], cells.tx[k]);
      EXPECT_LE(rel_diff(got.re, ref.re), kTol)
          << "tier " << simd::isa_name(isa) << ", cell " << k;
      EXPECT_LE(rel_diff(got.im, ref.im), kTol)
          << "tier " << simd::isa_name(isa) << ", cell " << k;
    }
  }
}

TEST(SimdKernels, AnnulusConsumeMatchesScalarOracle) {
  const std::size_t edge = 9;
  const em::Volume<em::cdouble> vol = random_volume(edge, 505);
  const em::SplitComplexLattice split(vol);
  const em::InterleavedComplexLattice ilv(vol);
  // An odd count exercises every tail path (the AVX tiers unroll by 4).
  const std::size_t count = 257;
  const CellSet cells = random_cells(split, count, 606);

  util::Rng rng(707);
  std::vector<double> view(2 * count);
  std::vector<std::uint32_t> index(count);
  std::vector<double> transfer(count), weight(count);
  for (std::size_t k = 0; k < count; ++k) {
    view[2 * k] = rng.uniform(-2.0, 2.0);
    view[2 * k + 1] = rng.uniform(-2.0, 2.0);
    index[k] = static_cast<std::uint32_t>(k);
    transfer[k] = rng.uniform(0.2, 1.5);
    weight[k] = rng.uniform(0.1, 2.0);
  }

  for (const bool use_transfer : {false, true}) {
    // Scalar oracle: the pre-dispatch pixel-sequential accumulation.
    double expected = 0.25;  // nonzero running accumulator
    for (std::size_t k = 0; k < count; ++k) {
      const em::SplitSample s = em::interp_trilinear_cell(
          split, cells.base[k], cells.tz[k], cells.ty[k], cells.tx[k]);
      double sre = s.re, sim = s.im;
      if (use_transfer) {
        sre *= transfer[k];
        sim *= transfer[k];
      }
      const double dre = view[2 * k] - sre;
      const double dim = view[2 * k + 1] - sim;
      expected += (dre * dre + dim * dim) * weight[k];
    }

    simd::AnnulusBlock blk;
    blk.base = cells.base.data();
    blk.tz = cells.tz.data();
    blk.ty = cells.ty.data();
    blk.tx = cells.tx.data();
    blk.count = count;
    blk.view = view.data();
    blk.index = index.data();
    blk.transfer = use_transfer ? transfer.data() : nullptr;
    blk.weight = weight.data();

    for (const simd::Isa isa : available_tiers()) {
      const simd::KernelTable& kt = simd::kernel_table(isa);
      double got = 0.0;
      if (kt.layout == simd::LatticeLayout::kSplit) {
        ASSERT_NE(kt.annulus_split, nullptr);
        got = kt.annulus_split(split.re.data(), split.im.data(),
                               split.stride_y, split.stride_z,
                               split.re.size(), blk, 0.25);
      } else {
        ASSERT_NE(kt.annulus_ilv, nullptr);
        got = kt.annulus_ilv(ilv.data.data(), ilv.stride_y, ilv.stride_z,
                             ilv.cells(), blk, 0.25);
      }
      if (isa == simd::Isa::kSse2) {
        EXPECT_EQ(got, expected) << "transfer=" << use_transfer;
      } else {
        EXPECT_LE(rel_diff(got, expected), kTol)
            << "tier " << simd::isa_name(isa) << " transfer=" << use_transfer;
      }
    }
  }
}

TEST(SimdKernels, PointwiseComplexProductsMatchScalar) {
  const std::size_t n = 33;  // odd: every tier's tail path runs
  util::Rng rng(808);
  std::vector<double> a0(2 * n), b(2 * n), src(2 * n);
  for (double& v : a0) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (double& v : src) v = rng.uniform(-1.0, 1.0);

  for (const simd::Isa isa : available_tiers()) {
    const simd::KernelTable& kt = simd::kernel_table(isa);
    ASSERT_NE(kt.cmul, nullptr);
    ASSERT_NE(kt.cmul_conj, nullptr);
    std::vector<double> a = a0;
    kt.cmul(a.data(), b.data(), n);
    std::vector<double> conj_out(2 * n);
    kt.cmul_conj(conj_out.data(), src.data(), b.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::complex<double> av{a0[2 * k], a0[2 * k + 1]};
      const std::complex<double> bv{b[2 * k], b[2 * k + 1]};
      const std::complex<double> sv{src[2 * k], src[2 * k + 1]};
      const std::complex<double> want_mul = av * bv;
      const std::complex<double> want_conj = sv * std::conj(bv);
      EXPECT_LE(rel_diff(a[2 * k], want_mul.real()), kTol);
      EXPECT_LE(rel_diff(a[2 * k + 1], want_mul.imag()), kTol);
      EXPECT_LE(rel_diff(conj_out[2 * k], want_conj.real()), kTol);
      EXPECT_LE(rel_diff(conj_out[2 * k + 1], want_conj.imag()), kTol);
    }
    // cmul_conj permits dst == src (the Bluestein in-place form).
    std::vector<double> inplace = src;
    kt.cmul_conj(inplace.data(), inplace.data(), b.data(), n);
    for (std::size_t k = 0; k < 2 * n; ++k) {
      EXPECT_EQ(inplace[k], conj_out[k]) << simd::isa_name(isa);
    }
  }
}

TEST(SimdKernels, FftMatchesNaiveDftOnEveryTier) {
  IsaGuard guard;
  for (const std::size_t n : {std::size_t{64}, std::size_t{31}}) {
    const fft::Fft1D plan(n);
    util::Rng rng(909);
    std::vector<fft::cdouble> x(n);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    // Naive O(n^2) DFT oracle.
    std::vector<fft::cdouble> want(n);
    double scale = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      fft::cdouble acc{0.0, 0.0};
      for (std::size_t j = 0; j < n; ++j) {
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>(j * k % n) /
                             static_cast<double>(n);
        acc += x[j] * fft::cdouble{std::cos(angle), std::sin(angle)};
      }
      want[k] = acc;
      scale = std::max(scale, std::abs(acc));
    }
    for (const simd::Isa isa : available_tiers()) {
      simd::force_isa(isa);
      std::vector<fft::cdouble> data = x;
      plan.forward(data.data());
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_LE(std::abs(data[k] - want[k]) / scale, 1e-11)
            << "n=" << n << " tier " << simd::isa_name(isa) << " bin " << k;
      }
      plan.inverse(data.data());
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_LE(std::abs(data[k] - x[k]), 1e-11)
            << "n=" << n << " tier " << simd::isa_name(isa) << " bin " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. End-to-end: per-tier matcher vs the scalar reference
// ---------------------------------------------------------------------------

TEST(SimdMatcher, EveryTierMatchesReferenceDistance) {
  em::PhantomSpec phantom;
  phantom.l = 16;
  const em::BlobModel model = em::make_sindbis_like(phantom);
  const em::Volume<double> lattice = model.rasterize(phantom.l);

  // Each matcher snapshots the process-wide tier at construction, so
  // pin each tier before building its matchers.
  std::vector<std::unique_ptr<core::FourierMatcher>> matchers;
  {
    IsaGuard guard;
    for (const simd::Isa isa : available_tiers()) {
      simd::force_isa(isa);
      for (const metrics::Weighting w :
           {metrics::Weighting::kUniform, metrics::Weighting::kRadial}) {
        core::MatchOptions options;
        options.pad = 2;
        options.weighting = w;
        matchers.push_back(
            std::make_unique<core::FourierMatcher>(lattice, options));
        EXPECT_EQ(matchers.back()->isa(), isa);
      }
    }
  }

  const em::Orientation truth{48.0, 160.0, 72.0};
  util::Rng rng(1010);
  for (const auto& matcher : matchers) {
    const em::Image<em::cdouble> spectrum =
        matcher->prepare_view(model.project_analytic(phantom.l, truth));
    for (int trial = 0; trial < 8; ++trial) {
      const em::Orientation o{rng.uniform(0.0, 180.0), rng.uniform(0.0, 360.0),
                              rng.uniform(0.0, 360.0)};
      const double fast = matcher->distance(spectrum, o);
      const double ref = matcher->distance_reference(spectrum, o);
      EXPECT_LE(rel_diff(fast, ref), kTol)
          << "tier " << simd::isa_name(matcher->isa()) << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Steady state: no heap allocation once the hot paths are warm
// ---------------------------------------------------------------------------

/// Heap allocations `fn` makes (the counting gate is open only while
/// it runs).
template <typename Fn>
std::uint64_t heap_allocs_during(Fn&& fn) {
  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_count_heap.store(true, std::memory_order_relaxed);
  fn();
  g_count_heap.store(false, std::memory_order_relaxed);
  return g_heap_allocs.load(std::memory_order_relaxed);
}

TEST(HotPathAlloc, WarmSlidingWindowSearchNeverAllocates) {
  em::PhantomSpec phantom;
  phantom.l = 16;
  const em::BlobModel model = em::make_sindbis_like(phantom);
  core::MatchOptions options;
  options.pad = 2;
  const core::FourierMatcher matcher(model.rasterize(phantom.l), options);
  const em::Orientation truth{48.0, 160.0, 72.0};
  const em::Image<em::cdouble> spectrum =
      matcher.prepare_view(model.project_analytic(phantom.l, truth));
  // Off-truth, so the window slides through overlapping domains.
  const core::SearchDomain domain{
      em::Orientation{truth.theta + 3.0, truth.phi, truth.omega}, 1.0, 3};
  const core::WindowResult warm =
      core::sliding_window_search(matcher, spectrum, domain);
  ASSERT_GT(warm.slides, 0);
  // The warm-up sized the thread's search scratch; each pass re-scores
  // the same windows through distance().
  const std::uint64_t allocs = heap_allocs_during([&] {
    for (int pass = 0; pass < 3; ++pass) {
      (void)core::sliding_window_search(matcher, spectrum, domain);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, WarmFftScratchNeverAllocates) {
  // 90 is not a power of two: forward() runs Bluestein, so every
  // scratch site below also exercises the nested convolution buffer.
  constexpr std::size_t n = 90;
  constexpr std::size_t lines = 20;  // more than one fft1d_lines tile
  const fft::Fft1D plan(n);
  util::Rng rng(2024);
  std::vector<fft::cdouble> grid(n * lines);
  for (fft::cdouble& v : grid) {
    v = fft::cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  std::vector<fft::cdouble> half(lines * (n / 2 + 1));
  std::vector<double> real_rows(lines * n);
  struct Site {
    const char* name;
    std::function<void()> pass;
  };
  const Site sites[] = {
      {"forward", [&] { plan.forward(grid.data()); }},
      {"forward_strided", [&] { plan.forward_strided(grid.data(), lines); }},
      {"fft1d_lines",
       [&] { fft::fft1d_lines(grid.data(), lines, n, lines, false); }},
      {"irfft_rows",
       [&] { fft::irfft_rows(half.data(), real_rows.data(), lines, n); }},
  };
  for (const Site& site : sites) {
    site.pass();  // warm-up sizes the site's buffer (and the plan cache)
    const std::uint64_t allocs = heap_allocs_during([&] {
      for (int rep = 0; rep < 3; ++rep) site.pass();
    });
    EXPECT_EQ(allocs, 0u) << site.name;
  }
}

}  // namespace
