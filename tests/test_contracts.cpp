// Tests for por::contracts (Tier A of the correctness tooling).
//
// Three families:
//  * ON-mode death tests — each macro kind aborts with the rich
//    "CONTRACT VIOLATION" report, including the active por::obs span
//    stack as ambient context.  Compiled only when POR_CONTRACTS_ENABLED
//    (the `contracts` ctest label exists so CI runs this binary in a
//    POR_CONTRACTS=ON build where they actually execute).
//  * OFF-mode no-op proofs — the macros are constant expressions (so a
//    constexpr function containing them static_asserts), and their
//    operands are never evaluated (a side-effecting condition leaves
//    its counter untouched).
//  * checked_span semantics — valid accesses behave like std::span in
//    both modes; violations die only in ON mode.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "por/em/grid.hpp"
#include "por/obs/registry.hpp"
#include "por/obs/span.hpp"
#include "por/simd/kernels.hpp"
#include "por/util/contracts.hpp"

namespace {

using por::contracts::checked_span;

// ---------------------------------------------------------------------------
// Mode-independent checked_span behaviour.

TEST(CheckedSpan, BasicAccessors) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  checked_span span(v);  // deduction guide: checked_span<double>
  EXPECT_EQ(span.size(), 4u);
  EXPECT_FALSE(span.empty());
  EXPECT_EQ(span.data(), v.data());
  EXPECT_DOUBLE_EQ(span[0], 1.0);
  EXPECT_DOUBLE_EQ(span[3], 4.0);
  EXPECT_DOUBLE_EQ(span.front(), 1.0);
  EXPECT_DOUBLE_EQ(span.back(), 4.0);

  span[1] = 20.0;  // mutable view writes through
  EXPECT_DOUBLE_EQ(v[1], 20.0);

  double sum = 0.0;
  for (const double x : span) sum += x;
  EXPECT_DOUBLE_EQ(sum, 1.0 + 20.0 + 3.0 + 4.0);
}

TEST(CheckedSpan, ConstVectorYieldsConstView) {
  const std::vector<int> v{7, 8, 9};
  checked_span span(v);  // deduction guide: checked_span<const int>
  static_assert(std::is_same_v<decltype(span), checked_span<const int>>);
  EXPECT_EQ(span.size(), 3u);
  EXPECT_EQ(span[2], 9);
}

TEST(CheckedSpan, Subspan) {
  std::vector<int> v{0, 1, 2, 3, 4, 5};
  checked_span span(v);
  const auto mid = span.subspan(2, 3);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0], 2);
  EXPECT_EQ(mid[2], 4);
  const auto empty_tail = span.subspan(6, 0);
  EXPECT_TRUE(empty_tail.empty());
}

TEST(CheckedSpan, DefaultConstructedIsEmpty) {
  checked_span<double> span;
  EXPECT_TRUE(span.empty());
  EXPECT_EQ(span.size(), 0u);
  EXPECT_EQ(span.data(), nullptr);
}

#if POR_CONTRACTS_ENABLED

// ---------------------------------------------------------------------------
// ON mode: violations abort with the rich report.
//
// The test binaries are multi-threaded (por::obs keeps per-thread
// trace buffers), so use the fork+exec death-test style.
[[maybe_unused]] const bool g_threadsafe_death_style = [] {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  return true;
}();

TEST(ContractsDeathTest, ExpectViolationReportsExpressionAndValues) {
  const double z = -0.25;
  EXPECT_DEATH(POR_EXPECT(z >= 0.0, "z =", z),
               "CONTRACT VIOLATION \\(precondition\\).*z >= 0\\.0.*z = -0\\.25");
}

TEST(ContractsDeathTest, EnsureViolationIsPostcondition) {
  const int produced = 0;
  EXPECT_DEATH(POR_ENSURE(produced > 0, "produced =", produced),
               "CONTRACT VIOLATION \\(postcondition\\).*produced > 0");
}

TEST(ContractsDeathTest, BoundsViolationReportsIndexAndSize) {
  const std::size_t size = 4;
  EXPECT_DEATH(POR_BOUNDS(7, size),
               "CONTRACT VIOLATION \\(bounds\\).*index = 7.*size = 4");
}

TEST(ContractsDeathTest, BoundsRejectsNegativeSignedIndex) {
  const long idx = -1;
  EXPECT_DEATH(POR_BOUNDS(idx, 10), "CONTRACT VIOLATION \\(bounds\\)");
}

TEST(ContractsDeathTest, FiniteRejectsNaNAndInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(POR_FINITE(nan), "CONTRACT VIOLATION \\(finiteness\\)");
  EXPECT_DEATH(POR_FINITE(inf), "CONTRACT VIOLATION \\(finiteness\\)");
}

TEST(ContractsDeathTest, PassingContractsAreSilent) {
  POR_EXPECT(1 + 1 == 2);
  POR_ENSURE(true, "never printed");
  POR_BOUNDS(3, 4);
  POR_FINITE(0.0);
  SUCCEED();
}

TEST(ContractsDeathTest, CheckedSpanOutOfRangeDies) {
  std::vector<double> v{1.0, 2.0};
  checked_span span(v);
  EXPECT_DEATH((void)span[2], "CONTRACT VIOLATION \\(bounds\\)");
  EXPECT_DEATH((void)span.subspan(1, 5), "subspan out of range");
}

TEST(ContractsDeathTest, EmptySpanFrontBackDie) {
  checked_span<double> span;
  EXPECT_DEATH((void)span.front(), "front\\(\\) on empty span");
  EXPECT_DEATH((void)span.back(), "back\\(\\) on empty span");
}

// The failure report names the refinement step that reached the
// contract: por::obs registers the active span stack as the ambient
// context provider (see obs/span.cpp).
TEST(ContractsDeathTest, ReportIncludesActiveObsSpanStack) {
  por::obs::set_enabled(true);
  EXPECT_DEATH(
      {
        por::obs::ScopedSpan outer("refine_step");
        por::obs::ScopedSpan inner("window_search");
        POR_EXPECT(false, "tripped under spans");
      },
      "refine_step > window_search");
}

// The matcher's branch-free cell fetch trusts the zero pad only as far
// as the padded lattice reaches: a staged base whose +1,+1,+1 corner
// lies at or past cells() (a truncation toward zero of a negative
// coordinate, or a base cell outside the logical cube) must abort on
// the SSE2 tier's per-pixel bounds check, not read past the lattice.
TEST(ContractsDeathTest, AnnulusCornerPastLatticeDies) {
  const std::size_t l = 4;
  por::em::Volume<por::em::cdouble> vol(l);
  for (auto& c : vol.storage()) c = por::em::cdouble(1.0, -1.0);
  const por::em::InterleavedComplexLattice lat(vol);

  const std::size_t base = lat.cells() - (lat.stride_z + lat.stride_y + 1);
  const double t = 0.5, view[2] = {0.0, 0.0}, weight = 1.0;
  const std::uint32_t index = 0;
  por::simd::AnnulusBlock blk;
  blk.base = &base;
  blk.tz = blk.ty = blk.tx = &t;
  blk.count = 1;
  blk.view = view;
  blk.index = &index;
  blk.weight = &weight;
  const por::simd::KernelTable& kt =
      por::simd::kernel_table(por::simd::Isa::kSse2);
  EXPECT_DEATH((void)kt.annulus(lat.data.data(), lat.stride_y, lat.stride_z,
                                lat.cells(), blk, 0.0),
               "CONTRACT VIOLATION \\(bounds\\)");
  // One cell lower, the corner is the last padded cell: no abort.
  const std::size_t inside = base - 1;
  blk.base = &inside;
  (void)kt.annulus(lat.data.data(), lat.stride_y, lat.stride_z, lat.cells(),
                   blk, 0.0);
}

#else  // !POR_CONTRACTS_ENABLED

// ---------------------------------------------------------------------------
// OFF mode: the macros are no-ops — provably.

// Proof 1: each disabled macro expands to a constant expression
// (an unevaluated sizeof), so a constexpr function made of nothing
// but contracts is itself a constant expression.
constexpr bool contracts_are_constexpr_noops() {
  POR_EXPECT(false, "never evaluated");
  POR_ENSURE(false);
  POR_BOUNDS(100, 1);
  POR_FINITE(1.0);
  return true;
}
static_assert(contracts_are_constexpr_noops(),
              "disabled contracts must compile to constant no-ops");

// Proof 2: operands are never evaluated — a side-effecting condition
// leaves its counter untouched.
TEST(ContractsDisabled, OperandsAreNotEvaluated) {
  int calls = 0;
  auto bump = [&calls]() { return ++calls > 0; };
  POR_EXPECT(bump(), "message also unevaluated");
  POR_ENSURE(bump());
  POR_BOUNDS(static_cast<std::size_t>(calls += 1), 0u);
  POR_FINITE(static_cast<double>(calls += 1));
  EXPECT_EQ(calls, 0);
}

// Violations that would abort in ON mode sail through.
TEST(ContractsDisabled, ViolationsDoNotAbort) {
  std::vector<double> v{1.0, 2.0};
  checked_span span(v);
  POR_EXPECT(false);
  POR_BOUNDS(10, 2);
  POR_FINITE(std::numeric_limits<double>::quiet_NaN());
  // operator[] still indexes (unchecked) — only in-range here, since
  // out-of-range would be real UB without the contract.
  EXPECT_DOUBLE_EQ(span[1], 2.0);
  SUCCEED();
}

#endif  // POR_CONTRACTS_ENABLED

}  // namespace
