// por/core/cancel.hpp
//
// Cooperative cancellation + deadline propagation (DESIGN.md §15).
// A CancelToken is shared between a controller (the RefineService's
// dispatcher, a driver's watchdog, a client thread) and the refinement
// hot path: the controller flips the flag or arms a deadline, the hot
// path polls check() at natural preemption points — scheduler chunk
// boundaries (one view), sliding-window rounds, and every
// kCancelCheckStride matchings inside a window round — and
// unwinds with the structured Cancelled exception instead of silently
// burning workers on a job nobody wants anymore.
//
// The token travels as the explicit CancelToken* parameter of
// sliding_window_search / OrientationRefiner::refine_view — a per-CALL
// token, so one shared refiner can execute many jobs with different
// deadlines at once.
//
// Cancellation is cooperative and lossless: nothing is torn down
// mid-matching; the exception carries whether the cause was an
// explicit cancel or a deadline so the service can surface kCancelled
// vs kTimedOut as distinct terminal states.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

namespace por::core {

/// Candidates scored between token polls inside the sliding-window
/// scoring loop: frequent enough that a deadline lands within a few
/// hundred microseconds, rare enough to stay invisible in the profile.
inline constexpr std::size_t kCancelCheckStride = 64;

/// Thrown by CancelToken::check() (and thus out of the refinement
/// stack) when the work should stop.  Deliberately NOT a
/// resilience::Error: cancellation is not a failure of the data or the
/// machine, and nothing should retry or quarantine it.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(bool timed_out)
      : std::runtime_error(timed_out ? "cancelled: deadline exceeded"
                                     : "cancelled: cancel requested"),
        timed_out_(timed_out) {}

  /// True when the deadline fired, false for an explicit cancel().
  [[nodiscard]] bool timed_out() const { return timed_out_; }

 private:
  bool timed_out_;
};

/// Shared cancel flag + optional absolute deadline.  All mutators and
/// observers are thread-safe; the clock is injectable (monotonic
/// nanoseconds) so deadline tests never sleep.
class CancelToken {
 public:
  CancelToken() = default;
  /// `clock_ns` supplies monotonic nanoseconds; null uses the steady
  /// clock.  The clock is fixed at construction (the hot path reads it
  /// with no synchronization).
  explicit CancelToken(std::function<std::uint64_t()> clock_ns)
      : clock_(std::move(clock_ns)) {}

  /// Request cancellation.  Idempotent; never blocks.
  void cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arm (or re-arm) an absolute deadline in clock nanoseconds; 0
  /// disarms.
  void set_deadline_ns(std::uint64_t deadline_ns) {
    deadline_ns_.store(deadline_ns, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t deadline_ns() const {
    return deadline_ns_.load(std::memory_order_acquire);
  }

  /// True once cancel() was called or the deadline passed.
  [[nodiscard]] bool cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    return deadline_expired();
  }

  /// True when the stop reason is (or would be) the deadline.  An
  /// explicit cancel() wins over a later deadline expiry.
  [[nodiscard]] bool timed_out() const {
    return !cancelled_.load(std::memory_order_acquire) && deadline_expired();
  }

  /// The cooperative poll: throws Cancelled{timed_out} when stopping
  /// is requested, returns otherwise.
  void check() const {
    if (cancelled_.load(std::memory_order_acquire)) throw Cancelled(false);
    if (deadline_expired()) throw Cancelled(true);
  }

 private:
  [[nodiscard]] bool deadline_expired() const {
    const std::uint64_t deadline =
        deadline_ns_.load(std::memory_order_acquire);
    return deadline != 0 && now_ns() >= deadline;
  }

  [[nodiscard]] std::uint64_t now_ns() const {
    if (clock_) return clock_();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> deadline_ns_{0};
  std::function<std::uint64_t()> clock_;  ///< immutable after construction
};

}  // namespace por::core
