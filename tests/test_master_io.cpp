// The master's block partition (paper §3): rank r owns a contiguous,
// balanced segment of the m views, and the segments tile [0, m).
#include <gtest/gtest.h>

#include "por/io/master_io.hpp"

namespace {

using namespace por;

TEST(BlockPartition, SharesSumToTotal) {
  for (std::size_t m : {0u, 1u, 7u, 100u}) {
    for (int p : {1, 2, 3, 7}) {
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) total += io::block_share(m, p, r);
      EXPECT_EQ(total, m) << "m=" << m << " p=" << p;
    }
  }
}

TEST(BlockPartition, SharesAreBalanced) {
  for (int r = 0; r < 4; ++r) {
    const std::size_t share = io::block_share(10, 4, r);
    EXPECT_GE(share, 2u);
    EXPECT_LE(share, 3u);
  }
}

TEST(BlockPartition, BeginsAreCumulative) {
  EXPECT_EQ(io::block_begin(10, 4, 0), 0u);
  EXPECT_EQ(io::block_begin(10, 4, 1), 3u);  // rank 0 gets 3 (10 % 4 = 2)
  EXPECT_EQ(io::block_begin(10, 4, 2), 6u);
  EXPECT_EQ(io::block_begin(10, 4, 3), 8u);
}

}  // namespace
