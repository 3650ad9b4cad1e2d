#include "por/core/search_domain.hpp"

#include <cmath>
#include <stdexcept>

namespace por::core {

std::vector<em::Orientation> SearchDomain::enumerate() const {
  std::vector<em::Orientation> grid;
  grid.reserve(cardinality());
  for (int it = 0; it < width; ++it) {
    for (int ip = 0; ip < width; ++ip) {
      for (int io = 0; io < width; ++io) {
        grid.push_back(em::Orientation{center.theta + offset(it),
                                       center.phi + offset(ip),
                                       center.omega + offset(io)});
      }
    }
  }
  return grid;
}

std::vector<SearchLevel> paper_schedule() {
  return {
      SearchLevel{1.0, 3, 1.0, 3},
      SearchLevel{0.1, 9, 0.1, 3},
      SearchLevel{0.01, 9, 0.01, 3},
      SearchLevel{0.002, 10, 0.002, 3},
  };
}

double angular_step_px(double step_deg, double padded_r_map) {
  return em::deg2rad(step_deg) * padded_r_map;
}

bool searches_angles(double step_deg, double padded_r_map) {
  return angular_step_px(step_deg, padded_r_map) >= kResolutionFloorPx;
}

std::vector<SearchLevel> schedule_down_to(double finest_deg) {
  std::vector<SearchLevel> schedule;
  for (const auto& level : paper_schedule()) {
    if (level.angular_step_deg >= finest_deg - 1e-12) schedule.push_back(level);
  }
  if (schedule.empty()) {
    throw std::invalid_argument("schedule_down_to: no level that coarse");
  }
  return schedule;
}

double exhaustive_cardinality(double theta_range_deg, double phi_range_deg,
                              double omega_range_deg, double r_angular_deg) {
  if (r_angular_deg <= 0.0) {
    throw std::invalid_argument("exhaustive_cardinality: step must be > 0");
  }
  return (theta_range_deg / r_angular_deg) * (phi_range_deg / r_angular_deg) *
         (omega_range_deg / r_angular_deg);
}

std::uint64_t multires_matchings(double initial_range_deg,
                                 double final_step_deg, int width,
                                 double ratio, int angles) {
  if (initial_range_deg <= 0.0 || final_step_deg <= 0.0 || width < 2 ||
      ratio <= 1.0 || angles < 1) {
    throw std::invalid_argument("multires_matchings: bad arguments");
  }
  // Level 0 covers the initial range with `width` points; every later
  // level shrinks the step by `ratio` until it reaches final_step_deg.
  std::uint64_t levels = 1;
  double step = initial_range_deg / static_cast<double>(width - 1);
  while (step > final_step_deg * (1.0 + 1e-12)) {
    step /= ratio;
    ++levels;
  }
  // Matchings per level: width^angles.
  std::uint64_t per_level = 1;
  for (int a = 0; a < angles; ++a) per_level *= static_cast<std::uint64_t>(width);
  return levels * per_level;
}

}  // namespace por::core
