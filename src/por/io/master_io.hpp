// por/io/master_io.hpp
//
// Master-node block partition (paper §3: "Parallel I/O could reduce
// the I/O time but in our algorithm we do not assume the existence of
// a parallel file system.  To avoid contention, a master node
// typically reads an entire data file and distributes data segments to
// the nodes as needed").  core::parallel_refine_files does the reading
// and distributing (steps b, c, o); these helpers say which contiguous
// segment of m items rank r owns: [r*m/P, (r+1)*m/P) plus one extra
// from the remainder if r < m mod P.
#pragma once

#include <cstddef>

namespace por::io {

/// Block partition helper: number of items rank r owns out of m.
[[nodiscard]] std::size_t block_share(std::size_t m, int nranks, int rank);

/// Global index of the first item rank r owns.
[[nodiscard]] std::size_t block_begin(std::size_t m, int nranks, int rank);

}  // namespace por::io
