// por/util/contracts.hpp
//
// por::contracts — Tier A of the correctness-tooling layer.
//
// The matcher hot path (PR 2) is built on unchecked invariants: the
// truncation-floor trilinear kernel requires non-negative coordinates,
// the branch-free 2x2x2 fetch requires every base cell inside the
// logical cube, the vmpi typed receives require payload/element
// agreement.  These macros
// make every such contract *machine-checked* in instrumented builds and
// *zero-cost* in release builds:
//
//  * `POR_EXPECT(cond, ...)`  — precondition.
//  * `POR_ENSURE(cond, ...)`  — postcondition / invariant.
//  * `POR_BOUNDS(index, size)`— index-in-range check (signed-safe).
//  * `POR_FINITE(value)`      — the value must be a finite double.
//
// With the `POR_CONTRACTS` CMake option ON (default in Debug builds)
// a violated contract prints a rich report — the failed expression,
// the caller-supplied values, file:line:function, and the active
// por::obs trace-span stack of the failing thread — then aborts, so
// sanitizer jobs and death tests catch it.  With the option OFF every
// macro expands to `((void)sizeof(...))`: the condition stays
// type-checked but is never evaluated and generates no code (see
// tests/test_contracts.cpp for the static_assert proving this).
//
// `checked_span<T>` is the companion accessor: a pointer+size view
// whose operator[] runs POR_BOUNDS.  Hot loops that index flattened
// tables (the matcher's annulus arrays, the cache's entry table) go
// through it instead of naked pointers — free in release, checked in
// instrumented builds, and it satisfies the por_lint rule that bans
// naked subscripts into spectrum/lattice buffers outside the accessor
// headers.
//
// Extra message arguments are streamed (space-separated) into the
// failure report: `POR_EXPECT(z >= 0.0, "z =", z)`.  They are NOT
// evaluated when the contract passes or when contracts are off, so
// they may be arbitrarily expensive.
#pragma once

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#if defined(POR_CONTRACTS) && POR_CONTRACTS
#define POR_CONTRACTS_ENABLED 1
#else
#define POR_CONTRACTS_ENABLED 0
#endif

namespace por::contracts {

/// Optional hook supplying ambient context for failure reports.
/// por::obs installs one that formats the calling thread's open
/// trace-span stack (e.g. "refine_view > window_search"), so a
/// contract tripped deep in the matcher names the refinement step that
/// reached it.  The provider must be safe to call from any thread.
using ContextProvider = std::string (*)();
void set_context_provider(ContextProvider provider) noexcept;

/// Report the violation on stderr and abort().  Never returns; kept
/// out-of-line so the macro's fast path is a single predicted branch.
[[noreturn]] void fail(const char* kind, const char* expression,
                       const char* file, long line, const char* function,
                       const std::string& detail) noexcept;

namespace detail {

/// Space-separated operator<< rendering of the macro's extra
/// arguments; empty pack -> empty string.
template <typename... Args>
[[nodiscard]] std::string format_values(const Args&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return {};
  } else {
    std::ostringstream oss;
    const char* sep = "";
    ((oss << sep << args, sep = " "), ...);
    return oss.str();
  }
}

/// idx in [0, size)?  Handles signed indices without -Wsign-compare
/// noise: a negative index is out of bounds by definition.
template <typename I, typename S>
[[nodiscard]] constexpr bool in_bounds(I idx, S size) {
  if constexpr (std::is_signed_v<I>) {
    if (idx < 0) return false;
  }
  return static_cast<unsigned long long>(idx) <
         static_cast<unsigned long long>(size);
}

}  // namespace detail

}  // namespace por::contracts

#if POR_CONTRACTS_ENABLED

#define POR_CONTRACTS_DETAIL_CHECK(kind, cond, ...)                          \
  do {                                                                       \
    if (!(cond)) [[unlikely]] {                                              \
      ::por::contracts::fail(                                                \
          kind, #cond, __FILE__, static_cast<long>(__LINE__),                \
          static_cast<const char*>(__func__),                                \
          ::por::contracts::detail::format_values(__VA_ARGS__));             \
    }                                                                        \
  } while (false)

/// Precondition: what must hold on entry for the code below to be
/// meaningful (caller's obligation).
#define POR_EXPECT(cond, ...) \
  POR_CONTRACTS_DETAIL_CHECK("precondition", cond __VA_OPT__(, ) __VA_ARGS__)

/// Postcondition / invariant: what this code guarantees afterwards
/// (implementation's obligation).
#define POR_ENSURE(cond, ...) \
  POR_CONTRACTS_DETAIL_CHECK("postcondition", cond __VA_OPT__(, ) __VA_ARGS__)

/// index must lie in [0, size).  Reports both operand values.
#define POR_BOUNDS(index, size)                                              \
  do {                                                                       \
    const auto por_contracts_idx_ = (index);                                 \
    const auto por_contracts_size_ = (size);                                 \
    if (!::por::contracts::detail::in_bounds(por_contracts_idx_,             \
                                             por_contracts_size_))           \
        [[unlikely]] {                                                       \
      ::por::contracts::fail(                                                \
          "bounds", #index " < " #size, __FILE__,                            \
          static_cast<long>(__LINE__), static_cast<const char*>(__func__),   \
          ::por::contracts::detail::format_values(                           \
              "index =", por_contracts_idx_,                                 \
              "size =", por_contracts_size_));                               \
    }                                                                        \
  } while (false)

/// value must be a finite floating-point number (no NaN / inf): the
/// matcher's distances and the refiner's scores silently poison every
/// downstream argmin otherwise.
#define POR_FINITE(value)                                                    \
  do {                                                                       \
    const double por_contracts_value_ = static_cast<double>(value);          \
    if (!std::isfinite(por_contracts_value_)) [[unlikely]] {                 \
      ::por::contracts::fail(                                                \
          "finiteness", "isfinite(" #value ")", __FILE__,                    \
          static_cast<long>(__LINE__), static_cast<const char*>(__func__),   \
          ::por::contracts::detail::format_values(                           \
              "value =", por_contracts_value_));                             \
    }                                                                        \
  } while (false)

#else  // !POR_CONTRACTS_ENABLED

// Disabled: the operand stays *type-checked* inside an unevaluated
// sizeof, so a contract cannot bit-rot, but no code is generated and
// the condition is never executed (extra message arguments vanish
// entirely).  Each expansion is a constant expression, which is what
// lets test_contracts.cpp prove no-op-ness with a static_assert.
#define POR_EXPECT(cond, ...) ((void)sizeof(!(cond)))
#define POR_ENSURE(cond, ...) ((void)sizeof(!(cond)))
#define POR_BOUNDS(index, size) \
  ((void)sizeof(::por::contracts::detail::in_bounds((index), (size))))
#define POR_FINITE(value) ((void)sizeof(!(static_cast<double>(value) > 0.0)))

#endif  // POR_CONTRACTS_ENABLED

namespace por::contracts {

/// Bounds-checked pointer+size view (contract-aware std::span
/// analogue).  operator[] runs POR_BOUNDS: a real check in
/// instrumented builds, a no-op (plain indexed load, fully inlined) in
/// release builds.  Use it wherever a flattened table is indexed by a
/// computed subscript — the por_lint "naked subscript" rule points
/// offenders here.
template <typename T>
class checked_span {
 public:
  constexpr checked_span() = default;
  constexpr checked_span(T* data, std::size_t count)
      : data_(data), size_(count) {}
  /// View over a vector (const or mutable element type).
  template <typename U>
  constexpr checked_span(std::vector<U>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}
  template <typename U>
  constexpr checked_span(const std::vector<U>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] constexpr T* data() const { return data_; }
  [[nodiscard]] constexpr T* begin() const { return data_; }
  [[nodiscard]] constexpr T* end() const { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) const {
    POR_BOUNDS(i, size_);
    return data_[i];  // por-lint: allow(naked-subscript) accessor definition
  }

  [[nodiscard]] T& front() const {
    POR_EXPECT(size_ > 0, "front() on empty span");
    return data_[0];  // por-lint: allow(naked-subscript) accessor definition
  }
  [[nodiscard]] T& back() const {
    POR_EXPECT(size_ > 0, "back() on empty span");
    return data_[size_ - 1];  // por-lint: allow(naked-subscript) accessor
  }

  /// Sub-view [offset, offset+count); the whole range must fit.
  [[nodiscard]] checked_span subspan(std::size_t offset,
                                     std::size_t count) const {
    POR_EXPECT(offset <= size_ && count <= size_ - offset,
               "subspan out of range: offset =", offset, "count =", count,
               "size =", size_);
    return checked_span(data_ + offset, count);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

template <typename U>
checked_span(std::vector<U>&) -> checked_span<U>;
template <typename U>
checked_span(const std::vector<U>&) -> checked_span<const U>;

}  // namespace por::contracts
