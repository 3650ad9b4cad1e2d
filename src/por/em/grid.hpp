// por/em/grid.hpp
//
// Dense 2D and 3D lattices: the experimental views (Image) and the
// electron density map / its DFT (Volume).  Row-major storage matching
// the FFT module's layout.
//
// CONTRACT: every operator() subscript must lie inside the raster
// (y < ny, x < nx, z < nz) — enforced by POR_BOUNDS in instrumented
// builds, free in release.  at() additionally throws in every build.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "por/util/contracts.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace por::em {

using cdouble = std::complex<double>;

/// A dense ny x nx raster, stored row-major: (y, x) -> y*nx + x.
template <typename T>
class Image {
 public:
  Image() = default;
  Image(std::size_t ny, std::size_t nx, T fill = T{})
      : ny_(ny), nx_(nx), data_(ny * nx, fill) {}

  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t y, std::size_t x) {
    POR_BOUNDS(y, ny_);
    POR_BOUNDS(x, nx_);
    return data_[y * nx_ + x];
  }
  [[nodiscard]] const T& operator()(std::size_t y, std::size_t x) const {
    POR_BOUNDS(y, ny_);
    POR_BOUNDS(x, nx_);
    return data_[y * nx_ + x];
  }

  /// Checked access; throws std::out_of_range.
  [[nodiscard]] T& at(std::size_t y, std::size_t x) {
    if (y >= ny_ || x >= nx_) throw std::out_of_range("Image::at");
    return data_[y * nx_ + x];
  }
  [[nodiscard]] const T& at(std::size_t y, std::size_t x) const {
    if (y >= ny_ || x >= nx_) throw std::out_of_range("Image::at");
    return data_[y * nx_ + x];
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::vector<T>& storage() { return data_; }
  [[nodiscard]] const std::vector<T>& storage() const { return data_; }

  void fill(T value) { data_.assign(data_.size(), value); }

  bool operator==(const Image&) const = default;

 private:
  std::size_t ny_ = 0;
  std::size_t nx_ = 0;
  std::vector<T> data_;
};

/// A dense nz x ny x nx brick, stored row-major: (z,y,x) -> (z*ny+y)*nx+x.
template <typename T>
class Volume {
 public:
  Volume() = default;
  Volume(std::size_t nz, std::size_t ny, std::size_t nx, T fill = T{})
      : nz_(nz), ny_(ny), nx_(nx), data_(nz * ny * nx, fill) {}

  /// Cube of edge l.
  explicit Volume(std::size_t l, T fill = T{}) : Volume(l, l, l, fill) {}

  [[nodiscard]] std::size_t nz() const { return nz_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] bool is_cube() const { return nz_ == ny_ && ny_ == nx_; }

  [[nodiscard]] T& operator()(std::size_t z, std::size_t y, std::size_t x) {
    POR_BOUNDS(z, nz_);
    POR_BOUNDS(y, ny_);
    POR_BOUNDS(x, nx_);
    return data_[(z * ny_ + y) * nx_ + x];
  }
  [[nodiscard]] const T& operator()(std::size_t z, std::size_t y,
                                    std::size_t x) const {
    POR_BOUNDS(z, nz_);
    POR_BOUNDS(y, ny_);
    POR_BOUNDS(x, nx_);
    return data_[(z * ny_ + y) * nx_ + x];
  }

  [[nodiscard]] T& at(std::size_t z, std::size_t y, std::size_t x) {
    if (z >= nz_ || y >= ny_ || x >= nx_) throw std::out_of_range("Volume::at");
    return data_[(z * ny_ + y) * nx_ + x];
  }
  [[nodiscard]] const T& at(std::size_t z, std::size_t y,
                            std::size_t x) const {
    if (z >= nz_ || y >= ny_ || x >= nx_) throw std::out_of_range("Volume::at");
    return data_[(z * ny_ + y) * nx_ + x];
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::vector<T>& storage() { return data_; }
  [[nodiscard]] const std::vector<T>& storage() const { return data_; }

  void fill(T value) { data_.assign(data_.size(), value); }

  bool operator==(const Volume&) const = default;

 private:
  std::size_t nz_ = 0;
  std::size_t ny_ = 0;
  std::size_t nx_ = 0;
  std::vector<T> data_;
};

namespace detail {

/// Ask the kernel to back a plane with 2 MiB pages.  A matching
/// samples a rotated plane through the lattice, touching hundreds of
/// distinct 4 KiB pages per call — at L=64 pad=2 the lattice totals
/// ~34 MiB and the page-walk stalls rival the data misses.  Huge pages
/// cut the TLB footprint ~500x.  Best effort: MADV_COLLAPSE (Linux
/// 6.1+) collapses the already-populated range synchronously;
/// MADV_HUGEPAGE is the async fallback.  Failure is harmless and
/// ignored — correctness never depends on page size.
inline void advise_huge_pages(double* data, std::size_t count) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
#ifndef MADV_COLLAPSE
#define POR_MADV_COLLAPSE 25
#else
#define POR_MADV_COLLAPSE MADV_COLLAPSE
#endif
  constexpr std::uintptr_t kHuge = 2u << 20;
  if (count * sizeof(double) < 2 * kHuge) return;
  const std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t end = begin + count * sizeof(double);
  const std::uintptr_t lo = (begin + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t hi = end & ~(kHuge - 1);
  if (lo >= hi) return;
  void* p = reinterpret_cast<void*>(lo);
  if (madvise(p, hi - lo, POR_MADV_COLLAPSE) != 0) {
    (void)madvise(p, hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)count;
#endif
}

}  // namespace detail

/// Interleaved (re, im) copy of a cubic complex volume, padded by one
/// zero plane/row/column per axis: the matcher's spectrum ball, read
/// by every kernel tier (por/simd).
///
/// With re and im adjacent in memory, an (x, x+1) corner pair is 32
/// contiguous bytes (one 256-bit load on the AVX tiers), so a
/// trilinear cell is four corner rows.  The +1 zero padding makes the
/// *branch-free* 2x2x2 fetch exact and memory-safe for any base cell
/// (iz, iy, ix) in [0, edge-1]^3: a neighbor index that steps off the
/// lattice lands in the zero pad, which is precisely the "samples
/// outside the lattice are zero" convention of por/em/interp.hpp.
///
/// Layout: cell (z, y, x) -> complex index (z*(edge+1) + y)*(edge+1)+x;
/// data[2*i] = re, data[2*i + 1] = im.  stride_y/stride_z are in
/// complex CELLS.
///
/// CONTRACT: data holds exactly 2*(edge+1)^3 doubles and every cell
/// beyond the logical [0, edge)^3 cube is (0, 0) (POR_ENSURE in the
/// constructor); the kernels' POR_BOUNDS check on the +1,+1,+1 corner
/// against cells() starts from this pad.
struct InterleavedComplexLattice {
  std::size_t edge = 0;      ///< logical cube edge (n)
  std::size_t stride_y = 0;  ///< edge + 1, in complex cells
  std::size_t stride_z = 0;  ///< (edge + 1)^2, in complex cells
  std::vector<double> data;  ///< 2*(edge+1)^3 interleaved doubles

  InterleavedComplexLattice() = default;

  /// Build from a cubic complex volume (throws on non-cube input).
  explicit InterleavedComplexLattice(const Volume<cdouble>& vol) {
    if (!vol.is_cube()) {
      throw std::invalid_argument(
          "InterleavedComplexLattice: volume must be cubic");
    }
    edge = vol.nx();
    stride_y = edge + 1;
    stride_z = stride_y * stride_y;
    data.assign(2 * stride_z * stride_y, 0.0);
    const cdouble* src = vol.data();
    for (std::size_t z = 0; z < edge; ++z) {
      for (std::size_t y = 0; y < edge; ++y) {
        const std::size_t dst_row = 2 * (z * stride_z + y * stride_y);
        const std::size_t src_row = (z * edge + y) * edge;
        for (std::size_t x = 0; x < edge; ++x) {
          data[dst_row + 2 * x] = src[src_row + x].real();
          data[dst_row + 2 * x + 1] = src[src_row + x].imag();
        }
      }
    }
    POR_ENSURE(data.size() == 2 * stride_z * stride_y,
               "padded lattice size mismatch: edge =", edge);
    detail::advise_huge_pages(data.data(), data.size());
  }

  /// Number of complex cells (the bounds unit for cell indices).
  [[nodiscard]] std::size_t cells() const { return stride_z * stride_y; }

  [[nodiscard]] bool empty() const { return data.empty(); }
};

/// Promote a real raster to complex (imaginary part zero).
template <typename T>
[[nodiscard]] Image<cdouble> to_complex(const Image<T>& in) {
  Image<cdouble> out(in.ny(), in.nx());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out.storage()[i] = cdouble(static_cast<double>(in.storage()[i]), 0.0);
  }
  return out;
}

template <typename T>
[[nodiscard]] Volume<cdouble> to_complex(const Volume<T>& in) {
  Volume<cdouble> out(in.nz(), in.ny(), in.nx());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out.storage()[i] = cdouble(static_cast<double>(in.storage()[i]), 0.0);
  }
  return out;
}

/// Extract the real part of a complex raster.
[[nodiscard]] inline Image<double> real_part(const Image<cdouble>& in) {
  Image<double> out(in.ny(), in.nx());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out.storage()[i] = in.storage()[i].real();
  }
  return out;
}

[[nodiscard]] inline Volume<double> real_part(const Volume<cdouble>& in) {
  Volume<double> out(in.nz(), in.ny(), in.nx());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out.storage()[i] = in.storage()[i].real();
  }
  return out;
}

}  // namespace por::em
