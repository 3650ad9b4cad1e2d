#include "por/em/pad.hpp"

#include <cstring>
#include <stdexcept>

#include "por/util/contracts.hpp"

namespace por::em {

namespace {

/// Offset that aligns floor(l/2) of the inner lattice with floor(L/2)
/// of the outer one.
std::size_t center_offset(std::size_t l, std::size_t big) {
  return big / 2 - l / 2;
}

}  // namespace

Image<double> pad_image(const Image<double>& img, std::size_t factor) {
  if (factor < 1) throw std::invalid_argument("pad_image: factor must be >= 1");
  const std::size_t l = img.nx();
  if (img.ny() != l) throw std::invalid_argument("pad_image: image not square");
  const std::size_t big = l * factor;
  Image<double> out(big, big, 0.0);
  const std::size_t off = center_offset(l, big);
  for (std::size_t y = 0; y < l; ++y) {
    // Whole x-rows are contiguous in both lattices: one memcpy per row.
    POR_BOUNDS((y + off) * big + off + l - 1, big * big);
    std::memcpy(&out(y + off, off), &img(y, 0), l * sizeof(double));
  }
  return out;
}

Volume<double> pad_volume(const Volume<double>& vol, std::size_t factor) {
  if (factor < 1) throw std::invalid_argument("pad_volume: factor must be >= 1");
  const std::size_t l = vol.nx();
  if (!vol.is_cube()) throw std::invalid_argument("pad_volume: volume not cubic");
  const std::size_t big = l * factor;
  Volume<double> out(big, 0.0);
  const std::size_t off = center_offset(l, big);
  for (std::size_t z = 0; z < l; ++z) {
    for (std::size_t y = 0; y < l; ++y) {
      POR_BOUNDS(((z + off) * big + (y + off)) * big + off + l - 1,
                 big * big * big);
      std::memcpy(&out(z + off, y + off, off), &vol(z, y, 0),
                  l * sizeof(double));
    }
  }
  return out;
}

Volume<double> crop_volume(const Volume<double>& padded, std::size_t l) {
  const std::size_t big = padded.nx();
  if (!padded.is_cube() || l > big) {
    throw std::invalid_argument("crop_volume: bad sizes");
  }
  const std::size_t off = center_offset(l, big);
  Volume<double> out(l);
  for (std::size_t z = 0; z < l; ++z) {
    for (std::size_t y = 0; y < l; ++y) {
      std::memcpy(&out(z, y, 0), &padded(z + off, y + off, off),
                  l * sizeof(double));
    }
  }
  return out;
}

}  // namespace por::em
