// por/em/phantom.hpp
//
// Synthetic virus particles built from Gaussian blobs.
//
// The paper's experiments use real micrographs of Sindbis virus
// (alphavirus: icosahedral nucleocapsid inside a glycoprotein shell)
// and mammalian orthoreovirus (large double-shelled icosahedral
// capsid).  Those data sets are not available, so the reproduction
// uses blob phantoms with the same architecture.  Gaussian blobs have
// two decisive properties for a reproduction:
//   * their projections are analytic (a 3D Gaussian projects to a 2D
//    Gaussian), giving exact reference views independent of any FFT
//    machinery, and
//   * ground-truth orientations are known, so orientation recovery can
//    be verified directly — something the paper could only assess
//    indirectly through resolution curves.
#pragma once

#include <cstdint>
#include <vector>

#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/em/symmetry.hpp"

namespace por::em {

/// One isotropic Gaussian density blob, in voxel units relative to the
/// particle center.
struct Blob {
  Vec3 center;
  double sigma = 1.0;      ///< standard deviation in voxels
  double amplitude = 1.0;  ///< peak density value
};

/// A particle model: a bag of blobs with helpers to rasterize it into
/// a density map and to project it analytically.
class BlobModel {
 public:
  BlobModel() = default;

  void add(const Blob& blob) { blobs_.push_back(blob); }

  /// Add `blob` replicated by every operation of `group` (the way a
  /// capsid is built from copies of one subunit).
  void add_symmetrized(const Blob& blob, const SymmetryGroup& group);

  [[nodiscard]] const std::vector<Blob>& blobs() const { return blobs_; }
  [[nodiscard]] std::size_t size() const { return blobs_.size(); }

  /// Rotate the whole model (used to pose the "unknown symmetry"
  /// particle in an arbitrary frame for the detector experiments).
  [[nodiscard]] BlobModel rotated(const Mat3& r) const;

  /// Rasterize into an l^3 density map centered on voxel floor(l/2).
  /// Each blob contributes within a 4-sigma box only.
  [[nodiscard]] Volume<double> rasterize(std::size_t l) const;

  /// Exact analytic projection with orientation `o` into an l x l
  /// image whose particle center sits at floor(l/2) + (dx, dy):
  /// P(u,v) = sum_b A_b * sigma_b * sqrt(2 pi) * exp(-rho^2/(2 sigma^2)).
  [[nodiscard]] Image<double> project_analytic(std::size_t l,
                                               const Orientation& o,
                                               double dx = 0.0,
                                               double dy = 0.0) const;

 private:
  std::vector<Blob> blobs_;
};

/// Parameters common to the stock phantoms.
struct PhantomSpec {
  std::size_t l = 64;          ///< cube edge the phantom is sized for
  std::uint64_t seed = 1234;   ///< subunit placement seed
};

/// Alphavirus-like particle ("sindbis"): icosahedral glycoprotein
/// shell + inner nucleocapsid shell, 3 distinct subunit blobs per
/// asymmetric unit on each shell (60-fold symmetrized).
[[nodiscard]] BlobModel make_sindbis_like(const PhantomSpec& spec);

/// Orthoreovirus-like particle ("reo"): double-shelled icosahedral
/// capsid with turret blobs on the 5-fold axes and a dense core.
[[nodiscard]] BlobModel make_reo_like(const PhantomSpec& spec);

/// Fully asymmetric particle: `blob_count` random blobs in a ball.
[[nodiscard]] BlobModel make_asymmetric(const PhantomSpec& spec,
                                        std::size_t blob_count = 40);

/// Generic symmetric particle: `blobs_per_unit` random blobs
/// symmetrized by `group` (used by the symmetry-detection experiments).
[[nodiscard]] BlobModel make_with_symmetry(const PhantomSpec& spec,
                                           const SymmetryGroup& group,
                                           std::size_t blobs_per_unit = 4);

}  // namespace por::em
