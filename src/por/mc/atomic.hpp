// por/mc/atomic.hpp
// por-lint: allow(orphan-header) the model checker is a build-time tool,
// built only under POR_MC for tests/mc; no workload links it.
//
// mc::atomic<T> — the instrumented std::atomic stand-in the model
// checker substitutes through the POR_MC template hooks (DESIGN.md
// §13).  Production code is templated on `template <class> class
// Atomic = std::atomic`; checker tests instantiate the same template
// with por::mc::atomic, so the protocol under test is the *identical*
// source the release build runs — only the atomic cells differ, and
// only in the checker's translation units.  Nothing here is ever
// linked into a production binary.
//
// Every load/store/RMW is routed through the active mc::Execution,
// which records it with its declared std::memory_order and lets the
// explorer decide which store a load observes (see model.hpp).
// Outside an execution (setup before Env::run, invariant checks after,
// ad-hoc unit tests) operations apply sequentially, which matches the
// happens-before the surrounding join/ctor edges provide.
//
// Restrictions, enforced at compile time where possible: T must be
// trivially copyable and at most 8 bytes (values travel as uint64
// bits); no wait/notify; weak CAS never fails spuriously (a spurious
// failure only re-runs the caller's retry loop and would unbound the
// exhaustive search).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "por/mc/model.hpp"

namespace por::mc {

namespace detail {

template <typename T>
std::uint64_t to_bits(T value) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "mc::atomic values travel as 64-bit payloads");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(T));
  return bits;
}

template <typename T>
T from_bits(std::uint64_t bits) {
  T value{};
  std::memcpy(&value, &bits, sizeof(T));
  return value;
}

template <typename T>
std::uint64_t add_bits(std::uint64_t old_bits, std::uint64_t operand) {
  return to_bits<T>(
      static_cast<T>(from_bits<T>(old_bits) + from_bits<T>(operand)));
}

template <typename T>
std::uint64_t sub_bits(std::uint64_t old_bits, std::uint64_t operand) {
  return to_bits<T>(
      static_cast<T>(from_bits<T>(old_bits) - from_bits<T>(operand)));
}

template <typename T>
std::uint64_t xchg_bits(std::uint64_t /*old_bits*/, std::uint64_t operand) {
  return operand;
}

}  // namespace detail

template <typename T>
class atomic {  // NOLINT(readability-identifier-naming): std::atomic's shape
 public:
  atomic() : atomic(T{}) {}

  explicit atomic(T initial) : value_(initial) { register_self("a"); }

  /// Named locations make traces readable; the template hooks use the
  /// default constructor, litmus tests can name their cells.
  atomic(T initial, const char* name) : value_(initial) {
    register_self(name);
  }

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    if (Execution* exec = exec_for(this)) {
      return detail::from_bits<T>(exec->atomic_load(loc_, order));
    }
    return value_;
  }

  void store(T desired, std::memory_order order = std::memory_order_seq_cst) {
    if (Execution* exec = exec_for(this)) {
      exec->atomic_store(loc_, detail::to_bits(desired), order);
      return;
    }
    value_ = desired;
  }

  T exchange(T desired, std::memory_order order = std::memory_order_seq_cst) {
    if (Execution* exec = exec_for(this)) {
      return detail::from_bits<T>(exec->atomic_rmw(
          loc_, &detail::xchg_bits<T>, detail::to_bits(desired), order));
    }
    T old = value_;
    value_ = desired;
    return old;
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order success = std::memory_order_seq_cst,
      std::memory_order failure = std::memory_order_seq_cst) {
    if (Execution* exec = exec_for(this)) {
      std::uint64_t expected_bits = detail::to_bits(expected);
      const bool ok = exec->atomic_cas(loc_, expected_bits,
                                       detail::to_bits(desired), success,
                                       failure);
      if (!ok) expected = detail::from_bits<T>(expected_bits);
      return ok;
    }
    if (value_ == expected) {
      value_ = desired;
      return true;
    }
    expected = value_;
    return false;
  }

  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order success = std::memory_order_seq_cst,
      std::memory_order failure = std::memory_order_seq_cst) {
    // No spurious failures (see header comment); otherwise identical.
    return compare_exchange_strong(expected, desired, success, failure);
  }

  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T delta, std::memory_order order = std::memory_order_seq_cst) {
    if (Execution* exec = exec_for(this)) {
      return detail::from_bits<T>(exec->atomic_rmw(
          loc_, &detail::add_bits<T>, detail::to_bits(delta), order));
    }
    T old = value_;
    value_ = static_cast<T>(value_ + delta);
    return old;
  }

  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T delta, std::memory_order order = std::memory_order_seq_cst) {
    if (Execution* exec = exec_for(this)) {
      return detail::from_bits<T>(exec->atomic_rmw(
          loc_, &detail::sub_bits<T>, detail::to_bits(delta), order));
    }
    T old = value_;
    value_ = static_cast<T>(value_ - delta);
    return old;
  }

 private:
  void register_self(const char* name) {
    if (Execution* exec = Execution::current()) {
      exec_ = exec;
      loc_ = exec->register_location(
          detail::to_bits(value_),
          std::string(name) + "#" + std::to_string(exec->location_count()));
    }
  }

  /// The execution this cell belongs to, if it is still the active
  /// one.  A cell constructed outside any execution — or surviving
  /// past its execution — degrades to plain sequential storage.
  Execution* exec_for(const atomic* self) const {
    (void)self;
    Execution* active = Execution::current();
    return (active != nullptr && active == exec_) ? active : nullptr;
  }

  T value_;            ///< sequential-mode storage; also the initial value
  Execution* exec_ = nullptr;
  int loc_ = -1;
};

}  // namespace por::mc
