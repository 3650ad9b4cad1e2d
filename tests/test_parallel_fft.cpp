#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "por/em/grid.hpp"
#include "por/em/pad.hpp"
#include "por/em/projection.hpp"
#include "por/fft/centering.hpp"
#include "por/fft/fftnd.hpp"
#include "por/fft/parallel_fft3d.hpp"
#include "por/fft/plan_cache.hpp"
#include "por/io/master_io.hpp"
#include "por/obs/registry.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"

namespace {

using namespace por;
using por::fft::cdouble;

std::vector<double> random_map(std::size_t l, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(l * l * l);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// The serial oracle: the full complex 3D DFT of the padded cube,
/// centered_crop(fft3d_forward(to_complex(pad_volume(map))), crop).
std::vector<cdouble> serial_ball(const std::vector<double>& map, std::size_t l,
                                 std::size_t pad, fft::CubeCrop crop) {
  em::Volume<double> volume(l);
  volume.storage() = map;
  em::Volume<cdouble> padded = em::to_complex(em::pad_volume(volume, pad));
  const std::size_t n = l * pad;
  fft::fft3d_forward(padded.data(), n, n, n);
  return fft::centered_crop(padded.data(), n, crop);
}

/// Every rank's result of the collective.
std::vector<std::vector<cdouble>> run_collective(int p,
                                                 const std::vector<double>& map,
                                                 std::size_t l, std::size_t pad,
                                                 fft::CubeCrop ball) {
  std::vector<std::vector<cdouble>> per_rank(static_cast<std::size_t>(p));
  vmpi::run(p, [&](vmpi::Comm& comm) {
    const std::vector<double> none;
    per_rank[static_cast<std::size_t>(comm.rank())] =
        fft::parallel_padded_fft3d(comm, comm.is_root() ? map : none, l, pad,
                                   ball);
  });
  return per_rank;
}

/// The ball at the Nyquist radius of the padded edge n: the whole cube.
fft::CubeCrop whole(std::size_t n) {
  return fft::ball_crop(n, static_cast<double>(n) / 2.0 - 1.0);
}

void expect_bitwise(const std::vector<std::vector<cdouble>>& per_rank,
                    const std::vector<cdouble>& serial) {
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    ASSERT_EQ(per_rank[r].size(), serial.size()) << "rank " << r;
    EXPECT_EQ(std::memcmp(per_rank[r].data(), serial.data(),
                          serial.size() * sizeof(cdouble)),
              0)
        << "rank " << r;
  }
}

class ParallelFftRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFftRanks, MatchesSerialTransform) {
  // Against an independent path: the real-to-complex serial transform
  // the serial FourierMatcher uses (different arithmetic, so only
  // equal to rounding).
  const int p = GetParam();
  const std::size_t l = 16, pad = 2, n = l * pad;
  const auto map = random_map(l, 11);
  em::Volume<double> volume(l);
  volume.storage() = map;
  const em::Volume<cdouble> r2c =
      em::centered_fft3(em::pad_volume(volume, pad), whole(n));
  for (const auto& got : run_collective(p, map, l, pad, whole(n))) {
    ASSERT_EQ(got.size(), r2c.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      worst = std::max(worst, std::abs(got[i] - r2c.storage()[i]));
    }
    EXPECT_LT(worst, 1e-10);
  }
}

TEST_P(ParallelFftRanks, IsBitIdenticalToSerialTransform) {
  // The whole padded cube (the Nyquist ball): every rank holds the
  // serial transform bitwise — the pruning skips lines, it never
  // changes one.
  const int p = GetParam();
  const std::size_t l = 16, pad = 2, n = l * pad;
  const auto map = random_map(l, 21);
  expect_bitwise(run_collective(p, map, l, pad, whole(n)),
                 serial_ball(map, l, pad, whole(n)));
}

TEST_P(ParallelFftRanks, BallIsBitIdenticalToSerialCrop) {
  // Power-of-two and Bluestein padded edges (8..48), pads 1-3, and
  // balls of radius 2, mid and Nyquist.  At radius 2 the ball can have
  // fewer rows than P = 8, so some rank holds no ball row.
  const int p = GetParam();
  int rowless = 0;  // cases with a rank that holds no ball row
  for (const std::size_t l : {8u, 9u, 16u}) {
    for (const std::size_t pad : {1u, 2u, 3u}) {
      const std::size_t n = l * pad;
      const double nyquist = static_cast<double>(n) / 2.0 - 1.0;
      const auto map = random_map(l, 24 + l * 7 + pad);
      for (const double radius : {2.0, nyquist / 2.0, nyquist}) {
        SCOPED_TRACE(::testing::Message() << "l " << l << " pad " << pad
                                          << " radius " << radius);
        const fft::CubeCrop ball = fft::ball_crop(n, radius);
        if (io::block_share(ball.edge, p, p - 1) == 0) ++rowless;
        expect_bitwise(run_collective(p, map, l, pad, ball),
                       serial_ball(map, l, pad, ball));
      }
    }
  }
  if (p == 8) {
    EXPECT_GT(rowless, 0);
  }
}

TEST_P(ParallelFftRanks, AllZeroMapKeepsTheSerialSignedZeros) {
  // The signed-zero case, settled one way: the collective takes every
  // line it skips as +0.0 zeros, where the full transform computes the
  // plan's output on a zero line — which for a Bluestein length
  // (n = 18, 24, 27) carries -0.0 components.  The next pass sums those
  // zeros with the rest of its line, and a sum of zeros is -0.0 only if
  // every term is, so even an all-zero map, whose every sample is a
  // signed zero, keeps the serial transform's bits: memcmp holds as is.
  std::vector<cdouble> zero_line(18, cdouble{0.0, 0.0});
  fft::cached_plan(18)->forward(zero_line.data());
  bool negative_zero = false;
  for (const cdouble& v : zero_line) {
    negative_zero = negative_zero || std::signbit(v.real()) ||
                    std::signbit(v.imag());
  }
  ASSERT_TRUE(negative_zero);

  const int p = GetParam();
  for (const std::size_t l : {8u, 9u}) {
    for (const std::size_t pad : {2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "l " << l << " pad " << pad);
      const std::size_t n = l * pad;
      const std::vector<double> map(l * l * l, 0.0);
      expect_bitwise(run_collective(p, map, l, pad, whole(n)),
                     serial_ball(map, l, pad, whole(n)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelFftRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(ParallelFft, BallCropCoversTheTrilinearReach) {
  const std::size_t l = 16;  // center c = 8
  // Radius 2: base cells floor(6) .. floor(10), +1 corners to 11, one
  // cell of margin on each side.
  const fft::CubeCrop small = fft::ball_crop(l, 2.0);
  EXPECT_EQ(small.origin, 5u);
  EXPECT_EQ(small.edge, 8u);
  // The collective deals those 8 ball rows out by block partition:
  // 3, 3, 2 at P = 3, and at P = 9 the last rank holds none.
  EXPECT_EQ(io::block_share(small.edge, 3, 0), 3u);
  EXPECT_EQ(io::block_share(small.edge, 3, 2), 2u);
  EXPECT_EQ(io::block_share(small.edge, 9, 8), 0u);
  // The Nyquist radius reaches the whole cube.
  EXPECT_EQ(whole(l).origin, 0u);
  EXPECT_EQ(whole(l).edge, l);
  EXPECT_THROW((void)fft::ball_crop(l, -1.0), std::invalid_argument);
  EXPECT_THROW((void)fft::ball_crop(l, 9.0), std::invalid_argument);
}

TEST(ParallelFft, RejectsWrongRootVolume) {
  EXPECT_THROW(vmpi::run(1,
                         [](vmpi::Comm& comm) {
                           const std::vector<double> v(10);  // not 8^3
                           (void)fft::parallel_padded_fft3d(comm, v, 8, 2,
                                                            whole(16));
                         }),
               std::invalid_argument);
  EXPECT_THROW(vmpi::run(2,
                         [](vmpi::Comm& comm) {
                           // A ball outside the padded cube: every rank
                           // throws before any communication.
                           const std::vector<double> v(8 * 8 * 8);
                           (void)fft::parallel_padded_fft3d(
                               comm, v, 8, 2, fft::CubeCrop{4, 13});
                         }),
               std::invalid_argument);
}

TEST(ParallelFft, TrafficIsExactlyScatterExchangeAndBall) {
  // Bytes on the wire, exactly: the root scatters the unpadded map
  // (every plane but its own), each rank sends its planes' ball blocks
  // for every other rank's ball rows, and the ring all-gather moves
  // P - 1 copies of the ball.  Nothing scales with the padded cube.
  const std::size_t l = 9, pad = 3, n = l * pad;
  const auto map = random_map(l, 3);
  for (const int p : {2, 3, 4, 5}) {
    for (const double radius : {2.0, 6.0}) {
      SCOPED_TRACE(::testing::Message() << "P " << p << " radius " << radius);
      const fft::CubeCrop ball = fft::ball_crop(n, radius);
      const std::uint64_t e = ball.edge;
      std::uint64_t scatter = (l - io::block_share(l, p, 0)) * l * l *
                              sizeof(double);
      std::uint64_t exchange = 0;
      for (int s = 0; s < p; ++s) {
        for (int r = 0; r < p; ++r) {
          if (r == s) continue;
          exchange += io::block_share(l, p, s) * io::block_share(e, p, r) * e *
                      sizeof(cdouble);
        }
      }
      const std::uint64_t gather = static_cast<std::uint64_t>(p - 1) * e * e *
                                   e * sizeof(cdouble);
      const auto report = vmpi::run(p, [&](vmpi::Comm& comm) {
        const std::vector<double> none;
        (void)fft::parallel_padded_fft3d(comm, comm.is_root() ? map : none, l,
                                         pad, ball);
      });
      EXPECT_EQ(report.bytes, scatter + exchange + gather);
    }
  }
}

TEST(ParallelFft, CommunicationVolumeScalesWithRanks) {
  // With P ranks: scatter of the map + compact exchange + ring
  // all-gather of the ball (P - 1 copies).  Bytes grow with P for the
  // replication step — the cost the paper accepts to avoid later
  // communication.
  const std::size_t l = 16, pad = 2, n = l * pad;
  const auto map = random_map(l, 3);
  const auto bytes_for = [&](int p) {
    return vmpi::run(p, [&](vmpi::Comm& comm) {
             const std::vector<double> none;
             (void)fft::parallel_padded_fft3d(comm, comm.is_root() ? map : none,
                                              l, pad, whole(n));
           }).bytes;
  };
  const std::uint64_t bytes2 = bytes_for(2), bytes4 = bytes_for(4);
  EXPECT_GT(bytes2, 0u);
  EXPECT_GT(bytes4, bytes2);
}

TEST(ParallelFft, BallGatherSendsOnlyTheBall) {
  // The all-gather moves (P - 1) copies of the ball, not of the cube:
  // shrinking the ball from the whole padded cube (edge n) to radius 2
  // (edge e) saves exactly (P - 1) * (n^3 - e^3) gather samples, plus
  // the exchange's (l - l / P) * (n^2 - e^2) samples of dropped ball
  // blocks (P divides l here).  The scatter of the map is unchanged.
  const std::size_t l = 16, pad = 2, n = l * pad;
  const int p = 4;
  const auto map = random_map(l, 5);
  const auto bytes_for = [&](fft::CubeCrop ball) {
    return vmpi::run(p, [&](vmpi::Comm& comm) {
             const std::vector<double> none;
             (void)fft::parallel_padded_fft3d(comm, comm.is_root() ? map : none,
                                              l, pad, ball);
           }).bytes;
  };
  const fft::CubeCrop small = fft::ball_crop(n, 2.0);
  const std::uint64_t e = small.edge;
  const std::uint64_t gather = static_cast<std::uint64_t>(p - 1) *
                               (n * n * n - e * e * e) * sizeof(cdouble);
  const std::uint64_t exchange =
      (l - l / static_cast<std::size_t>(p)) * (n * n - e * e) *
      sizeof(cdouble);
  EXPECT_EQ(bytes_for(whole(n)) - bytes_for(small), gather + exchange);
  EXPECT_GT(gather, exchange);
}

TEST(ParallelFft, SingleRankSendsNothing) {
  const std::size_t l = 8;
  const auto map = random_map(l, 4);
  const auto report = vmpi::run(1, [&](vmpi::Comm& comm) {
    (void)fft::parallel_padded_fft3d(comm, map, l, 2, whole(2 * l));
  });
  EXPECT_EQ(report.bytes, 0u);
}

TEST(ParallelFft, CountsOnlyTheTransformedLines) {
  // fft.nd.points records the points of the lines actually
  // transformed: x-lines on the l input rows of the l map planes,
  // y-lines on the e ball columns of those planes, z-lines on the e^2
  // ball lines — however the ranks split them.
  const std::size_t l = 32, pad = 2, n = l * pad;
  const fft::CubeCrop ball = fft::ball_crop(n, 8.0);
  const std::uint64_t e = ball.edge;
  const auto map = random_map(l, 5);
  for (const int p : {1, 4}) {
    SCOPED_TRACE(p);
    std::vector<std::uint64_t> points(static_cast<std::size_t>(p));
    vmpi::run(p, [&](vmpi::Comm& comm) {
      obs::MetricsRegistry registry;
      obs::RegistryScope scope(registry);
      const std::vector<double> none;
      (void)fft::parallel_padded_fft3d(comm, comm.is_root() ? map : none, l,
                                       pad, ball);
      points[static_cast<std::size_t>(comm.rank())] =
          registry.counter("fft.nd.points").value();
    });
    std::uint64_t total = 0;
    for (const std::uint64_t v : points) total += v;
    EXPECT_EQ(total, n * (l * l + l * e + e * e));
    EXPECT_LT(total, n * n * n);  // a third of the full 3 n^3
  }
}

}  // namespace
