#include <gtest/gtest.h>

#include <cstring>

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

class ParallelFftRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFftRanks, MatchesSerialTransform) {
  const int p = GetParam();
  const std::size_t l = 16;
  const auto input = random_volume(l, 11);
  auto serial = input;
  fft::fft3d_forward(serial.data(), l, l, l);

  // Every rank must end with the identical full transform (step a.6).
  std::vector<std::vector<cdouble>> per_rank(p);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto local = comm.is_root() ? input : std::vector<cdouble>{};
    per_rank[comm.rank()] =
        fft::parallel_fft3d_forward(comm, std::move(local), l);
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
  // order, so the distributed result is the serial result *bitwise*,
  // for any rank count.
  const int p = GetParam();
  const std::size_t l = 16;
  const auto input = random_volume(l, 21);
  auto serial = input;
  fft::fft3d_forward(serial.data(), l, l, l);

  std::vector<std::vector<cdouble>> per_rank(p);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto local = comm.is_root() ? input : std::vector<cdouble>{};
    per_rank[comm.rank()] =
        fft::parallel_fft3d_forward(comm, std::move(local), l);
  });
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(per_rank[r].size(), serial.size());
    EXPECT_EQ(std::memcmp(per_rank[r].data(), serial.data(),
                          serial.size() * sizeof(cdouble)),
              0)
        << "rank " << r;
  }
}

TEST_P(ParallelFftRanks, InverseUndoesForward) {
  const int p = GetParam();
  const std::size_t l = 16;
  const auto input = random_volume(l, 22);

  std::vector<std::vector<cdouble>> per_rank(p);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto local = comm.is_root() ? input : std::vector<cdouble>{};
    auto spectrum = fft::parallel_fft3d_forward(comm, std::move(local), l);
    // Feed the replicated spectrum back through the inverse collective
    // (root's copy is authoritative; every rank already holds it).
    auto back = fft::parallel_fft3d_inverse(comm, std::move(spectrum), l);
    per_rank[comm.rank()] = std::move(back);
  });
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(per_rank[r].size(), input.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < input.size(); ++i) {
      worst = std::max(worst, std::abs(per_rank[r][i] - input[i]));
    }
    EXPECT_LT(worst, 1e-11) << "rank " << r;
  }
}

TEST_P(ParallelFftRanks, InverseMatchesSerialInverse) {
  const int p = GetParam();
  const std::size_t l = 8;
  const auto spectrum = random_volume(l, 23);
  auto serial = spectrum;
  fft::fft3d_inverse(serial.data(), l, l, l);

  std::vector<std::vector<cdouble>> per_rank(p);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto local = comm.is_root() ? spectrum : std::vector<cdouble>{};
    per_rank[comm.rank()] =
        fft::parallel_fft3d_inverse(comm, std::move(local), l);
  });
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(per_rank[r].size(), serial.size());
    EXPECT_EQ(std::memcmp(per_rank[r].data(), serial.data(),
                          serial.size() * sizeof(cdouble)),
              0)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelFftRanks, ::testing::Values(1, 2, 4, 8));

TEST(ParallelFft, RejectsIndivisibleEdge) {
  EXPECT_THROW(
      vmpi::run(3,
                [](vmpi::Comm& comm) {
                  auto v = comm.is_root()
                               ? std::vector<cdouble>(16 * 16 * 16)
                               : std::vector<cdouble>{};
                  // 16 % 3 != 0: every rank must throw (before any
                  // communication) so no peer deadlocks.
                  (void)fft::parallel_fft3d_forward(comm, std::move(v), 16);
                }),
      std::invalid_argument);
}

TEST(ParallelFft, RejectsWrongRootVolume) {
  EXPECT_THROW(
      vmpi::run(1,
                [](vmpi::Comm& comm) {
                  std::vector<cdouble> v(10);  // not 8^3
                  (void)fft::parallel_fft3d_forward(comm, std::move(v), 8);
                }),
      std::invalid_argument);
}

TEST(ParallelFft, CommunicationVolumeScalesWithRanks) {
  const std::size_t l = 16;
  const auto input = random_volume(l, 3);
  // With P ranks: scatter (P-1 blocks) + alltoall (P(P-1) blocks) +
  // ring allgather (P(P-1) blocks).  Bytes grow with P for the
  // replication step — the cost the paper accepts to avoid later
  // communication.
  std::uint64_t bytes2 = 0, bytes4 = 0;
  {
    auto report = vmpi::run(2, [&](vmpi::Comm& comm) {
      auto local = comm.is_root() ? input : std::vector<cdouble>{};
      (void)fft::parallel_fft3d_forward(comm, std::move(local), l);
    });
    bytes2 = report.bytes;
  }
  {
    auto report = vmpi::run(4, [&](vmpi::Comm& comm) {
      auto local = comm.is_root() ? input : std::vector<cdouble>{};
      (void)fft::parallel_fft3d_forward(comm, std::move(local), l);
    });
    bytes4 = report.bytes;
  }
  EXPECT_GT(bytes2, 0u);
  EXPECT_GT(bytes4, bytes2);
}

TEST(ParallelFft, SingleRankSendsNothing) {
  const std::size_t l = 8;
  const auto input = random_volume(l, 4);
  const auto report = vmpi::run(1, [&](vmpi::Comm& comm) {
    auto local = input;
    (void)fft::parallel_fft3d_forward(comm, std::move(local), l);
  });
  EXPECT_EQ(report.bytes, 0u);
}

}  // namespace
