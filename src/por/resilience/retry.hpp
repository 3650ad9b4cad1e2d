// por/resilience/retry.hpp
//
// Capped-exponential-backoff retry for transient failures.  The paper's
// production runs stream view files from a shared filesystem for hours
// (§3 master-node I/O model); a single NFS hiccup must cost one backoff
// sleep, not the run.  Only Error{kTransient} is retried — corrupt or
// fatal errors propagate immediately, and so does any foreign exception.
//
//   RetryPolicy policy;           // 1 attempt = retries disabled
//   policy.max_attempts = 4;      // try up to 4 times
//   auto map = with_retry(policy, "read_map", [&] {
//     return io::read_map(path);
//   });
//
// Every performed retry increments the current registry's
// "resilience.io.retries" counter so the run report shows exactly how
// bumpy the storage was.
#pragma once

#include <chrono>
#include <functional>
#include <utility>

#include "por/resilience/error.hpp"

namespace por::resilience {

/// Backoff schedule: attempt k (0-based) sleeps
/// min(base_delay * multiplier^k, max_delay) before the next try —
/// or, with jitter on, the decorrelated-jitter schedule
/// min(max_delay, base_delay + U[0,1) * (3 * prev_sleep - base_delay)).
/// Jitter is what keeps a thundering herd apart: when many workers hit
/// the same NFS flap at once, a deterministic schedule has them all
/// retrying in lockstep at the exact same instants, re-creating the
/// very stampede that knocked the mount over.
struct RetryPolicy {
  int max_attempts = 1;  ///< total tries; 1 means "no retry"
  std::chrono::milliseconds base_delay{10};
  double multiplier = 2.0;
  std::chrono::milliseconds max_delay{2000};
  /// Decorrelated jitter (opt-in; off keeps the exact deterministic
  /// schedule long-running configs were tuned against).
  bool jitter = false;
  /// Uniform [0, 1) source for the jitter draw.  Injectable so tests
  /// pin the schedule; null uses a thread-local PRNG.
  std::function<double()> rand01;
};

namespace detail {
/// Out-of-line retry bookkeeping: bump the obs counter, log, sleep.
/// Keeps <thread>, obs and log includes out of this header.
void on_retry(const char* what, int failed_attempt,
              std::chrono::milliseconds sleep_ms, const char* error);

/// Backoff for the given 0-based failed attempt, capped.  `prev_sleep`
/// is the previous attempt's sleep (feeds the decorrelated-jitter
/// recurrence; ignored for the deterministic schedule).
[[nodiscard]] std::chrono::milliseconds backoff_delay(
    const RetryPolicy& policy, int failed_attempt,
    std::chrono::milliseconds prev_sleep);
}  // namespace detail

/// Run `fn`, retrying on Error{kTransient} up to policy.max_attempts
/// total attempts with capped exponential backoff.  Returns fn's value;
/// rethrows the last transient error when attempts are exhausted.
template <typename F>
auto with_retry(const RetryPolicy& policy, const char* what, F&& fn)
    -> decltype(fn()) {
  const int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  std::chrono::milliseconds prev = policy.base_delay;
  for (int attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (const Error& error) {
      if (!error.retryable() || attempt + 1 >= attempts) throw;
      const std::chrono::milliseconds sleep_ms =
          detail::backoff_delay(policy, attempt, prev);
      prev = sleep_ms;
      detail::on_retry(what, attempt, sleep_ms, error.what());
    }
  }
}

}  // namespace por::resilience
