// por/util/timer.hpp
//
// The wall-clock stopwatch used throughout the library and by the
// benchmark harnesses.  Per-step times of the paper's Tables 1 and 2
// are recorded as obs spans ("step.<name>"), not here.
#pragma once

#include <chrono>

namespace por::util {

/// Monotonic wall-clock stopwatch.
///
/// The paper reports per-step wall times (1D DFT, read image, FFT
/// analysis, orientation refinement); WallTimer is the primitive all of
/// those measurements are built from.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace por::util
