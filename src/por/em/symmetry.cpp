#include "por/em/symmetry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace por::em {

namespace {

constexpr double kGolden = 1.6180339887498948482;  // (1 + sqrt(5)) / 2

bool nearly_equal(const Mat3& a, const Mat3& b, double tol = 1e-9) {
  for (int i = 0; i < 9; ++i) {
    if (std::abs(a.m[i] - b.m[i]) > tol) return false;
  }
  return true;
}

bool contains_matrix(const std::vector<Mat3>& set, const Mat3& candidate) {
  for (const auto& m : set) {
    if (nearly_equal(m, candidate)) return true;
  }
  return false;
}

}  // namespace

std::vector<Mat3> close_group(std::vector<Mat3> generators,
                              std::size_t max_order) {
  std::vector<Mat3> elements;
  elements.push_back(Mat3::identity());
  for (const auto& g : generators) {
    if (!contains_matrix(elements, g)) elements.push_back(g);
  }
  bool grew = true;
  while (grew) {
    grew = false;
    const std::size_t count = elements.size();
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = 0; j < count; ++j) {
        const Mat3 product = elements[i] * elements[j];
        if (!contains_matrix(elements, product)) {
          elements.push_back(product);
          grew = true;
          if (elements.size() > max_order) {
            throw std::runtime_error(
                "close_group: generator set does not close within the "
                "allowed order (non-finite or numerically inconsistent)");
          }
        }
      }
    }
  }
  return elements;
}

SymmetryGroup SymmetryGroup::identity() {
  return SymmetryGroup("C1", {Mat3::identity()});
}

SymmetryGroup SymmetryGroup::cyclic(int n) {
  if (n < 1) throw std::invalid_argument("cyclic: n must be >= 1");
  std::vector<Mat3> ops;
  ops.reserve(n);
  for (int k = 0; k < n; ++k) {
    ops.push_back(Mat3::rot_z(2.0 * std::numbers::pi * k / n));
  }
  std::string name = "C";
  name += std::to_string(n);
  return SymmetryGroup(std::move(name), std::move(ops));
}

SymmetryGroup SymmetryGroup::dihedral(int n) {
  if (n < 1) throw std::invalid_argument("dihedral: n must be >= 1");
  std::vector<Mat3> ops = close_group(
      {Mat3::rot_z(2.0 * std::numbers::pi / n), Mat3::rot_x(std::numbers::pi)},
      4 * static_cast<std::size_t>(n));
  std::string name = "D";
  name += std::to_string(n);
  return SymmetryGroup(std::move(name), std::move(ops));
}

SymmetryGroup SymmetryGroup::tetrahedral() {
  std::vector<Mat3> ops = close_group(
      {Mat3::rot_z(std::numbers::pi),
       Mat3::axis_angle({1, 1, 1}, 2.0 * std::numbers::pi / 3.0)},
      32);
  return SymmetryGroup("T", std::move(ops));
}

SymmetryGroup SymmetryGroup::octahedral() {
  std::vector<Mat3> ops = close_group(
      {Mat3::rot_z(std::numbers::pi / 2.0),
       Mat3::axis_angle({1, 1, 1}, 2.0 * std::numbers::pi / 3.0)},
      64);
  return SymmetryGroup("O", std::move(ops));
}

SymmetryGroup SymmetryGroup::icosahedral() {
  // 2-fold axes along x, y, z; 5-fold axis through the icosahedron
  // vertex (golden, 1, 0) — the setting of Fig. 1b where 5-folds sit
  // at (theta=90, phi=+-31.72 deg).  The z 2-fold is perpendicular to
  // that vertex axis, so those two alone only generate a D5 subgroup;
  // the 3-fold through the adjacent face center completes I.
  std::vector<Mat3> ops = close_group(
      {Mat3::rot_z(std::numbers::pi),
       Mat3::axis_angle({kGolden, 1.0, 0.0}, 2.0 * std::numbers::pi / 5.0),
       Mat3::axis_angle({2.0 * kGolden + 1.0, 0.0, kGolden},
                        2.0 * std::numbers::pi / 3.0)},
      128);
  return SymmetryGroup("I", std::move(ops));
}

SymmetryGroup SymmetryGroup::from_name(const std::string& name) {
  if (name.empty()) throw std::invalid_argument("from_name: empty name");
  const char kind = static_cast<char>(std::toupper(name.front()));
  if (kind == 'T' && name.size() == 1) return tetrahedral();
  if (kind == 'O' && name.size() == 1) return octahedral();
  if (kind == 'I' && name.size() == 1) return icosahedral();
  if ((kind == 'C' || kind == 'D') && name.size() > 1) {
    const int n = std::stoi(name.substr(1));
    return kind == 'C' ? cyclic(n) : dihedral(n);
  }
  throw std::invalid_argument("from_name: unknown point group '" + name + "'");
}

double SymmetryGroup::min_rotation_deg() const {
  double best = 360.0;
  for (const auto& op : ops_) {
    const double c = std::clamp((op.trace() - 1.0) / 2.0, -1.0, 1.0);
    const double angle = rad2deg(std::acos(c));
    if (angle > 1e-6 && angle < best) best = angle;
  }
  return best;
}

double symmetry_aware_geodesic_deg(const Orientation& a, const Orientation& b,
                                   const SymmetryGroup& group) {
  // For a particle invariant under G (rho(g x) = rho(x)), the
  // projection with orientation R equals the projection with g * R:
  // symmetry mates multiply on the LEFT.
  const Mat3 ra = rotation_matrix(a);
  const Mat3 rb = rotation_matrix(b);
  double best = 360.0;
  for (const auto& g : group.operations()) {
    best = std::min(best, geodesic_deg(ra, g * rb));
  }
  return best;
}

IcosahedralAsymmetricUnit::IcosahedralAsymmetricUnit() {
  v5a_ = Vec3{kGolden, 1.0, 0.0}.normalized();
  v5b_ = Vec3{kGolden, -1.0, 0.0}.normalized();
  v3_ = Vec3{2.0 * kGolden + 1.0, 0.0, kGolden}.normalized();
  // Inward normals of the three great-circle edges (winding chosen so
  // the triangle interior has non-negative dot with every normal).
  n_ab_ = v5a_.cross(v5b_);
  n_bc_ = v5b_.cross(v3_);
  n_ca_ = v3_.cross(v5a_);
  const Vec3 centroid = (v5a_ + v5b_ + v3_).normalized();
  if (centroid.dot(n_ab_) < 0.0) n_ab_ = -1.0 * n_ab_;
  if (centroid.dot(n_bc_) < 0.0) n_bc_ = -1.0 * n_bc_;
  if (centroid.dot(n_ca_) < 0.0) n_ca_ = -1.0 * n_ca_;
}

bool IcosahedralAsymmetricUnit::contains(const Vec3& direction) const {
  const Vec3 u = direction.normalized();
  constexpr double kEdgeTol = -1e-9;
  return u.dot(n_ab_) >= kEdgeTol && u.dot(n_bc_) >= kEdgeTol &&
         u.dot(n_ca_) >= kEdgeTol;
}

std::vector<Orientation> IcosahedralAsymmetricUnit::grid(
    double step_deg) const {
  if (step_deg <= 0.0) throw std::invalid_argument("grid: step must be > 0");
  std::vector<Orientation> views;
  // Bounding box of the triangle: theta in [69.09, 90], phi in
  // [-31.72, 31.72] (degrees).
  for (double theta = 69.0; theta <= 90.0 + 1e-9; theta += step_deg) {
    for (double phi = -32.0; phi <= 32.0 + 1e-9; phi += step_deg) {
      const Orientation o{theta, phi, 0.0};
      if (contains(view_axis(o))) views.push_back(o);
    }
  }
  return views;
}

}  // namespace por::em
