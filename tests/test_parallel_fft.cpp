#include <gtest/gtest.h>

#include <cstring>

#include "por/fft/centering.hpp"
#include "por/fft/fftnd.hpp"
#include "por/fft/parallel_fft3d.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"

namespace {

using namespace por;
using por::fft::cdouble;

std::vector<cdouble> random_volume(std::size_t l, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cdouble> v(l * l * l);
  for (auto& x : v) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return v;
}

/// The serial reference: fft3d_forward of the input, centered over the
/// whole cube, then cut to `crop` by plain indexing (so the oracle does
/// not share the crop arithmetic under test).
std::vector<cdouble> serial_centered_crop(const std::vector<cdouble>& input,
                                          std::size_t l, fft::CubeCrop crop) {
  auto raw = input;
  fft::fft3d_forward(raw.data(), l, l, l);
  const auto full = fft::centered_crop(raw.data(), l, fft::CubeCrop{0, l});
  const std::size_t o = crop.origin, e = crop.edge;
  std::vector<cdouble> out;
  out.reserve(e * e * e);
  for (std::size_t z = o; z < o + e; ++z) {
    for (std::size_t y = o; y < o + e; ++y) {
      for (std::size_t x = o; x < o + e; ++x) {
        out.push_back(full[(z * l + y) * l + x]);
      }
    }
  }
  return out;
}

/// The ball at the Nyquist radius: the whole cube.
fft::CubeCrop whole(std::size_t l) {
  return fft::ball_crop(l, static_cast<double>(l) / 2.0 - 1.0);
}

class ParallelFftRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFftRanks, MatchesSerialTransform) {
  const int p = GetParam();
  const std::size_t l = 16;
  const auto input = random_volume(l, 11);
  const auto serial = serial_centered_crop(input, l, whole(l));

  // Every rank must end with the identical full transform (step a.6 at
  // the Nyquist radius replicates the whole cube).
  std::vector<std::vector<cdouble>> per_rank(p);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto local = comm.is_root() ? input : std::vector<cdouble>{};
    per_rank[comm.rank()] =
        fft::parallel_fft3d_forward(comm, std::move(local), l, whole(l));
  });
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(per_rank[r].size(), serial.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      worst = std::max(worst, std::abs(per_rank[r][i] - serial[i]));
    }
    EXPECT_LT(worst, 1e-10) << "rank " << r;
  }
}

TEST_P(ParallelFftRanks, IsBitIdenticalToSerialTransform) {
  // Stronger than MatchesSerialTransform: the slab pipeline runs the
  // very same cached 1D plans over the same lines in the same per-line
  // order, and centers with the same per-element arithmetic, so the
  // distributed result is the serial result *bitwise*, for any rank
  // count.
  const int p = GetParam();
  const std::size_t l = 16;
  const auto input = random_volume(l, 21);
  const auto serial = serial_centered_crop(input, l, whole(l));

  std::vector<std::vector<cdouble>> per_rank(p);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto local = comm.is_root() ? input : std::vector<cdouble>{};
    per_rank[comm.rank()] =
        fft::parallel_fft3d_forward(comm, std::move(local), l, whole(l));
  });
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(per_rank[r].size(), serial.size());
    EXPECT_EQ(std::memcmp(per_rank[r].data(), serial.data(),
                          serial.size() * sizeof(cdouble)),
              0)
        << "rank " << r;
  }
}

TEST_P(ParallelFftRanks, BallIsBitIdenticalToSerialCrop) {
  // Step a.6 replicates only the r_map ball: every rank must hold the
  // serial centered transform's crop, bit for bit — for a ball whose
  // rows some ranks' slabs do not hold at all (radius 2: at P = 4 the
  // ball's raw rows 13..15 and 0..4 leave rank 2 empty-handed), a
  // mid-size ball, and the Nyquist ball (the whole cube).
  const int p = GetParam();
  const std::size_t l = 16;
  const auto input = random_volume(l, 24);
  for (const double radius : {2.0, 5.0, 7.0}) {
    SCOPED_TRACE(radius);
    const fft::CubeCrop ball = fft::ball_crop(l, radius);
    const auto serial = serial_centered_crop(input, l, ball);
    std::vector<std::vector<cdouble>> per_rank(p);
    vmpi::run(p, [&](vmpi::Comm& comm) {
      auto local = comm.is_root() ? input : std::vector<cdouble>{};
      per_rank[comm.rank()] =
          fft::parallel_fft3d_forward(comm, std::move(local), l, ball);
    });
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(per_rank[r].size(), serial.size()) << "rank " << r;
      EXPECT_EQ(std::memcmp(per_rank[r].data(), serial.data(),
                            serial.size() * sizeof(cdouble)),
                0)
          << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelFftRanks, ::testing::Values(1, 2, 4, 8));

TEST(ParallelFft, BallCropCoversTheTrilinearReach) {
  const std::size_t l = 16;  // center c = 8
  // Radius 2: base cells floor(6) .. floor(10), +1 corners to 11, one
  // cell of margin on each side.
  const fft::CubeCrop small = fft::ball_crop(l, 2.0);
  EXPECT_EQ(small.origin, 5u);
  EXPECT_EQ(small.edge, 8u);
  // At P = 4 (slabs of 4 raw rows) the ball's raw rows
  // (y + 8) % 16 for y in [5, 13) are 13..15 and 0..4: rank 2 holds
  // none — the empty-pack case BallIsBitIdenticalToSerialCrop covers.
  std::vector<int> rows_per_rank(4, 0);
  for (std::size_t y = small.origin; y < small.origin + small.edge; ++y) {
    ++rows_per_rank[((y + 8) % l) / 4];
  }
  EXPECT_EQ(rows_per_rank, (std::vector<int>{4, 1, 0, 3}));
  // The Nyquist radius reaches the whole cube.
  EXPECT_EQ(whole(l).origin, 0u);
  EXPECT_EQ(whole(l).edge, l);
  EXPECT_THROW((void)fft::ball_crop(l, -1.0), std::invalid_argument);
  EXPECT_THROW((void)fft::ball_crop(l, 9.0), std::invalid_argument);
}

TEST(ParallelFft, RejectsIndivisibleEdge) {
  EXPECT_THROW(
      vmpi::run(3,
                [](vmpi::Comm& comm) {
                  auto v = comm.is_root()
                               ? std::vector<cdouble>(16 * 16 * 16)
                               : std::vector<cdouble>{};
                  // 16 % 3 != 0: every rank must throw (before any
                  // communication) so no peer deadlocks.
                  (void)fft::parallel_fft3d_forward(comm, std::move(v), 16,
                                                    whole(16));
                }),
      std::invalid_argument);
}

TEST(ParallelFft, RejectsWrongRootVolume) {
  EXPECT_THROW(
      vmpi::run(1,
                [](vmpi::Comm& comm) {
                  std::vector<cdouble> v(10);  // not 8^3
                  (void)fft::parallel_fft3d_forward(comm, std::move(v), 8,
                                                    whole(8));
                }),
      std::invalid_argument);
}

TEST(ParallelFft, CommunicationVolumeScalesWithRanks) {
  const std::size_t l = 16;
  const auto input = random_volume(l, 3);
  // With P ranks: scatter (P-1 blocks) + alltoall (P(P-1) blocks) +
  // ring allgather of the ball (P-1 rounds).  Bytes grow with P for
  // the replication step — the cost the paper accepts to avoid later
  // communication.
  std::uint64_t bytes2 = 0, bytes4 = 0;
  {
    auto report = vmpi::run(2, [&](vmpi::Comm& comm) {
      auto local = comm.is_root() ? input : std::vector<cdouble>{};
      (void)fft::parallel_fft3d_forward(comm, std::move(local), l, whole(l));
    });
    bytes2 = report.bytes;
  }
  {
    auto report = vmpi::run(4, [&](vmpi::Comm& comm) {
      auto local = comm.is_root() ? input : std::vector<cdouble>{};
      (void)fft::parallel_fft3d_forward(comm, std::move(local), l, whole(l));
    });
    bytes4 = report.bytes;
  }
  EXPECT_GT(bytes2, 0u);
  EXPECT_GT(bytes4, bytes2);
}

TEST(ParallelFft, BallGatherSendsOnlyTheBall) {
  // The all-gather moves (P - 1) copies of the ball, not of the cube:
  // shrinking the ball from the whole cube to radius 2 saves exactly
  // (P - 1) * (whole^3 - ball^3) samples of traffic.
  const std::size_t l = 16;
  const int p = 4;
  const auto input = random_volume(l, 5);
  const auto bytes_for = [&](fft::CubeCrop ball) {
    return vmpi::run(p, [&](vmpi::Comm& comm) {
             auto local = comm.is_root() ? input : std::vector<cdouble>{};
             (void)fft::parallel_fft3d_forward(comm, std::move(local), l,
                                               ball);
           }).bytes;
  };
  const fft::CubeCrop small = fft::ball_crop(l, 2.0);
  const std::uint64_t samples =
      static_cast<std::uint64_t>(p - 1) *
      (l * l * l - small.edge * small.edge * small.edge);
  EXPECT_EQ(bytes_for(whole(l)) - bytes_for(small),
            samples * sizeof(cdouble));
}

TEST(ParallelFft, SingleRankSendsNothing) {
  const std::size_t l = 8;
  const auto input = random_volume(l, 4);
  const auto report = vmpi::run(1, [&](vmpi::Comm& comm) {
    auto local = input;
    (void)fft::parallel_fft3d_forward(comm, std::move(local), l, whole(l));
  });
  EXPECT_EQ(report.bytes, 0u);
}

}  // namespace
