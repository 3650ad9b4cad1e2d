// por/simd/isa.hpp
//
// Runtime CPU-feature detection and ISA selection for the dispatched
// hot kernels (DESIGN.md §12).
//
// The matcher's trilinear/correlation loop and the FFT butterfly/
// pointwise loops each exist in three tiers — SSE2 (the baseline every
// x86-64 has; bit-identical to the pre-dispatch code), AVX2+FMA and
// AVX-512 — compiled in separate translation units with the matching
// -m flags and selected ONCE per process:
//
//   1. CPUID (+ XGETBV for OS-enabled AVX/AVX-512 state) finds the
//      best tier the machine supports,
//   2. the POR_FORCE_ISA environment variable ("sse2" | "avx2" |
//      "avx512") caps it process-wide,
//   3. force_isa() rebinds it in-process (tests and benches pin each
//      tier this way before building the matchers that should use it).
//
// A request above what the hardware supports clamps DOWN with a
// one-time stderr notice — forcing never enables an unsupported path.
// The selection is observable via the obs gauge `simd.isa` (numeric
// Isa value) and per-kernel dispatch counters; see kernels.hpp.
#pragma once

#include <optional>
#include <string_view>

namespace por::simd {

/// Instruction-set tiers, ordered: a larger value strictly extends the
/// smaller one's feature set.
enum class Isa : int {
  kSse2 = 0,    ///< baseline x86-64 (portable scalar body elsewhere)
  kAvx2 = 1,    ///< AVX2 + FMA
  kAvx512 = 2,  ///< AVX-512 F + DQ (+ FMA)
};

/// Short lowercase name ("sse2" / "avx2" / "avx512").
[[nodiscard]] const char* isa_name(Isa isa);

/// Parse an ISA name (the POR_FORCE_ISA grammar); nullopt on junk.
[[nodiscard]] std::optional<Isa> parse_isa(std::string_view name);

/// Best tier this machine supports (CPUID + XGETBV, cached after the
/// first call).  Non-x86 builds report kSse2, which selects the
/// portable scalar kernel bodies.
[[nodiscard]] Isa detect_best_isa();

/// The process-wide selected tier: detect_best_isa() capped by
/// POR_FORCE_ISA.  Resolved once on first use; every dispatch site
/// (FFT plans, matchers) reads this.
[[nodiscard]] Isa active_isa();

/// Rebind the process-wide tier (clamped to detect_best_isa()).
/// Test/bench hook: callers must rebind BEFORE constructing the
/// matchers that should use it — a FourierMatcher snapshots its kernel
/// table (and builds the matching lattice layout) at construction and
/// never re-reads the global.  Returns the tier actually selected.
Isa force_isa(Isa isa);

}  // namespace por::simd
