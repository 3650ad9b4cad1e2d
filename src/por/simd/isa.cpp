#include "por/simd/isa.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "por/obs/registry.hpp"
#include "por/simd/kernels.hpp"
#include "por/util/contracts.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define POR_SIMD_X86 1
#if defined(__GNUC__) || defined(__clang__)
#include <cpuid.h>
#endif
#endif

namespace por::simd {

namespace {

#if defined(POR_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))

/// XCR0 via the raw xgetbv encoding — works without -mxsave.
std::uint64_t xgetbv0() {
  std::uint32_t eax = 0, edx = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

Isa detect_best_isa_uncached() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return Isa::kSse2;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  if (!osxsave || !avx || !fma) return Isa::kSse2;
  // OS must save the ymm (XCR0 bits 1|2) — and for AVX-512 also the
  // opmask/zmm-hi/hi16-zmm state (bits 5|6|7) — or the wide registers
  // fault at runtime regardless of what CPUID advertises.
  const std::uint64_t xcr0 = xgetbv0();
  if ((xcr0 & 0x6) != 0x6) return Isa::kSse2;
  unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) == 0) {
    return Isa::kSse2;
  }
  const bool avx2 = (ebx7 & (1u << 5)) != 0;
  if (!avx2) return Isa::kSse2;
  const bool avx512f = (ebx7 & (1u << 16)) != 0;
  const bool avx512dq = (ebx7 & (1u << 17)) != 0;
  if (avx512f && avx512dq && (xcr0 & 0xe6) == 0xe6) return Isa::kAvx512;
  return Isa::kAvx2;
}

#else

Isa detect_best_isa_uncached() { return Isa::kSse2; }

#endif

/// Cap `isa` at the best tier that is hardware-supported AND compiled
/// into this binary (a tier built without its -m flags has a null TU
/// table).
Isa clamp_to_available(Isa isa) {
  Isa capped = isa;
  if (capped > detect_best_isa()) capped = detect_best_isa();
  if (capped == Isa::kAvx512 && detail::avx512_table() == nullptr) {
    capped = Isa::kAvx2;
  }
  if (capped == Isa::kAvx2 && detail::avx2_table() == nullptr) {
    capped = Isa::kSse2;
  }
  return capped;
}

/// Publish the selection: gauge `simd.isa` carries the numeric tier so
/// exports/tests can assert on it (0 = sse2, 1 = avx2, 2 = avx512).
void publish_isa(Isa isa) {
  obs::current_registry().gauge("simd.isa").set(static_cast<double>(isa));
}

std::atomic<int>& active_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

Isa select_initial() {
  Isa isa = detect_best_isa();
  if (const char* forced = std::getenv("POR_FORCE_ISA")) {
    if (const std::optional<Isa> parsed = parse_isa(forced)) {
      const Isa capped = clamp_to_available(*parsed);
      if (capped != *parsed) {
        std::fprintf(stderr,
                     "por::simd: POR_FORCE_ISA=%s not available on this "
                     "machine/build; using %s\n",
                     forced, isa_name(capped));
      }
      isa = capped;
    } else {
      std::fprintf(stderr,
                   "por::simd: ignoring unknown POR_FORCE_ISA=%s "
                   "(expected sse2|avx2|avx512)\n",
                   forced);
    }
  }
  publish_isa(isa);
  return isa;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

std::optional<Isa> parse_isa(std::string_view name) {
  if (name == "sse2" || name == "scalar") return Isa::kSse2;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512" || name == "avx512f") return Isa::kAvx512;
  return std::nullopt;
}

Isa detect_best_isa() {
  static const Isa best = detect_best_isa_uncached();
  return best;
}

Isa active_isa() {
  std::atomic<int>& slot = active_slot();
  int current = slot.load(std::memory_order_acquire);
  if (current < 0) {
    const Isa selected = select_initial();
    int expected = -1;
    if (slot.compare_exchange_strong(expected, static_cast<int>(selected),
                                     std::memory_order_acq_rel)) {
      return selected;
    }
    current = expected;  // another thread won the race
  }
  return static_cast<Isa>(current);
}

Isa force_isa(Isa isa) {
  const Isa capped = clamp_to_available(isa);
  active_slot().store(static_cast<int>(capped), std::memory_order_release);
  publish_isa(capped);
  return capped;
}

const KernelTable& kernel_table(Isa isa) {
  const Isa capped = clamp_to_available(isa);
  const KernelTable* table = nullptr;
  switch (capped) {
    case Isa::kAvx512: table = detail::avx512_table(); break;
    case Isa::kAvx2: table = detail::avx2_table(); break;
    case Isa::kSse2: table = detail::sse2_table(); break;
  }
  POR_ENSURE(table != nullptr && table->isa == capped,
             "kernel table missing for tier", static_cast<int>(capped));
  return *table;
}

const KernelTable& active_kernels() { return kernel_table(active_isa()); }

}  // namespace por::simd
