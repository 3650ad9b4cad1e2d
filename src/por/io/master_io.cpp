#include "por/io/master_io.hpp"

namespace por::io {

std::size_t block_share(std::size_t m, int nranks, int rank) {
  const std::size_t base = m / static_cast<std::size_t>(nranks);
  const std::size_t rem = m % static_cast<std::size_t>(nranks);
  return base + (static_cast<std::size_t>(rank) < rem ? 1 : 0);
}

std::size_t block_begin(std::size_t m, int nranks, int rank) {
  std::size_t begin = 0;
  for (int r = 0; r < rank; ++r) begin += block_share(m, nranks, r);
  return begin;
}

}  // namespace por::io
