// por/io/master_io.hpp
//
// Master-node block partition (paper §3: "Parallel I/O could reduce
// the I/O time but in our algorithm we do not assume the existence of
// a parallel file system.  To avoid contention, a master node
// typically reads an entire data file and distributes data segments to
// the nodes as needed").  core::parallel_refine_files does the reading
// and distributing (steps b, c, o); these helpers say which contiguous
// segment of m items rank r owns: [r*m/P, (r+1)*m/P) plus one extra
// from the remainder if r < m mod P.  The slab-parallel 3D DFT
// (por/fft/parallel_fft3d.hpp) and step C's reduce-scatter split
// their planes the same way.  Header-only, so por_fft can use it below
// por_io in the link graph.
#pragma once

#include <cstddef>

namespace por::io {

/// Block partition helper: number of items rank r owns out of m.
[[nodiscard]] inline std::size_t block_share(std::size_t m, int nranks,
                                             int rank) {
  const std::size_t base = m / static_cast<std::size_t>(nranks);
  const std::size_t rem = m % static_cast<std::size_t>(nranks);
  return base + (static_cast<std::size_t>(rank) < rem ? 1 : 0);
}

/// Global index of the first item rank r owns.
[[nodiscard]] inline std::size_t block_begin(std::size_t m, int nranks,
                                             int rank) {
  std::size_t begin = 0;
  for (int r = 0; r < rank; ++r) begin += block_share(m, nranks, r);
  return begin;
}

}  // namespace por::io
