// por/metrics/orientation_error.hpp
//
// Orientation-recovery error statistics.  Phantoms give us exact
// ground truth, so we can measure what the paper could only infer from
// FSC curves: how far each refined orientation is from the true one.
// For symmetric particles every symmetry mate of the truth is equally
// correct, so errors are measured with the symmetry-aware geodesic.
#pragma once

#include <vector>

#include "por/em/orientation.hpp"
#include "por/em/symmetry.hpp"

namespace por::metrics {

/// Summary statistics over a set of per-view errors (degrees).
struct ErrorStats {
  double mean = 0.0;
  double median = 0.0;
  double rms = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// Per-view symmetry-aware geodesic errors (degrees).
[[nodiscard]] std::vector<double> orientation_errors_deg(
    const std::vector<em::Orientation>& estimated,
    const std::vector<em::Orientation>& truth,
    const em::SymmetryGroup& symmetry);

/// Summarize a set of error values.
[[nodiscard]] ErrorStats summarize(std::vector<double> errors);

/// Convenience: summarize(orientation_errors_deg(...)).
[[nodiscard]] ErrorStats orientation_error_stats(
    const std::vector<em::Orientation>& estimated,
    const std::vector<em::Orientation>& truth,
    const em::SymmetryGroup& symmetry);

}  // namespace por::metrics
