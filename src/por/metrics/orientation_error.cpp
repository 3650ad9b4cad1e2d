#include "por/metrics/orientation_error.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace por::metrics {

std::vector<double> orientation_errors_deg(
    const std::vector<em::Orientation>& estimated,
    const std::vector<em::Orientation>& truth,
    const em::SymmetryGroup& symmetry) {
  if (estimated.size() != truth.size()) {
    throw std::invalid_argument("orientation_errors_deg: size mismatch");
  }
  std::vector<double> errors;
  errors.reserve(estimated.size());
  for (std::size_t i = 0; i < estimated.size(); ++i) {
    errors.push_back(
        em::symmetry_aware_geodesic_deg(estimated[i], truth[i], symmetry));
  }
  return errors;
}

ErrorStats summarize(std::vector<double> errors) {
  ErrorStats stats;
  stats.count = errors.size();
  if (errors.empty()) return stats;
  double sum = 0.0, sum2 = 0.0;
  for (double e : errors) {
    sum += e;
    sum2 += e * e;
    stats.max = std::max(stats.max, e);
  }
  stats.mean = sum / static_cast<double>(errors.size());
  stats.rms = std::sqrt(sum2 / static_cast<double>(errors.size()));
  std::sort(errors.begin(), errors.end());
  const std::size_t mid = errors.size() / 2;
  stats.median = errors.size() % 2 ? errors[mid]
                                   : 0.5 * (errors[mid - 1] + errors[mid]);
  return stats;
}

ErrorStats orientation_error_stats(const std::vector<em::Orientation>& estimated,
                                   const std::vector<em::Orientation>& truth,
                                   const em::SymmetryGroup& symmetry) {
  return summarize(orientation_errors_deg(estimated, truth, symmetry));
}

}  // namespace por::metrics
