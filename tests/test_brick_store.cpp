#include <gtest/gtest.h>

#include <cstring>

#include "por/core/brick_store.hpp"
#include "por/core/svm_matcher.hpp"
#include "por/em/interp.hpp"
#include "por/em/pad.hpp"
#include "por/em/projection.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using namespace por::core;
using por::test::small_phantom;

Volume<cdouble> random_spectrum(std::size_t edge, std::uint64_t seed) {
  util::Rng rng(seed);
  Volume<cdouble> vol(edge);
  for (auto& v : vol.storage()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return vol;
}

TEST(RecvAny, ReceivesFromAnySource) {
  vmpi::run(3, [](vmpi::Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, 5, comm.rank() * 10);
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int src = -1;
        const auto raw = comm.recv_any_bytes(5, src);
        int value = 0;
        std::memcpy(&value, raw.data(), sizeof value);
        EXPECT_EQ(value, src * 10);
        seen += value;
      }
      EXPECT_EQ(seen, 30);
    }
  });
}

class BrickStoreRanks : public ::testing::TestWithParam<int> {};

TEST_P(BrickStoreRanks, SampleMatchesDirectInterpolation) {
  const int p = GetParam();
  const std::size_t edge = 16;
  const Volume<cdouble> truth = random_spectrum(edge, 5);

  std::vector<double> worst(p, 0.0);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    BrickStoreConfig config;
    config.brick_edge = 4;
    config.cache_bricks = 8;
    BrickStore store(comm, comm.is_root() ? truth : Volume<cdouble>{}, edge,
                     config);
    store.start_server();
    util::Rng rng(100 + comm.rank());
    double local_worst = 0.0;
    for (int trial = 0; trial < 200; ++trial) {
      const double z = rng.uniform(-1.0, edge + 1.0);
      const double y = rng.uniform(-1.0, edge + 1.0);
      const double x = rng.uniform(-1.0, edge + 1.0);
      const cdouble via_store = store.sample(z, y, x);
      const cdouble direct = interp_trilinear(truth, z, y, x);
      local_worst = std::max(local_worst, std::abs(via_store - direct));
    }
    worst[comm.rank()] = local_worst;
    store.stop_server();
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_LT(worst[r], 1e-12) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, BrickStoreRanks, ::testing::Values(1, 2, 4));

TEST(BrickStore, LocalBricksAreFree) {
  const std::size_t edge = 8;
  const Volume<cdouble> truth = random_spectrum(edge, 7);
  vmpi::run(1, [&](vmpi::Comm& comm) {
    BrickStoreConfig config;
    config.brick_edge = 4;
    BrickStore store(comm, truth, edge, config);
    store.start_server();
    (void)store.sample(3.5, 3.5, 3.5);
    EXPECT_EQ(store.remote_fetches(), 0u);
    EXPECT_GT(store.local_hits(), 0u);
    store.stop_server();
  });
}

TEST(BrickStore, CacheAvoidsRepeatFetches) {
  const std::size_t edge = 16;
  const Volume<cdouble> truth = random_spectrum(edge, 9);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    BrickStoreConfig config;
    config.brick_edge = 4;
    config.cache_bricks = 64;  // plenty: nothing evicted
    BrickStore store(comm, comm.is_root() ? truth : Volume<cdouble>{}, edge,
                     config);
    store.start_server();
    // Touch the same point twice; the second pass must be all cache.
    (void)store.sample(9.5, 9.5, 9.5);
    const std::uint64_t after_first = store.remote_fetches();
    (void)store.sample(9.5, 9.5, 9.5);
    EXPECT_EQ(store.remote_fetches(), after_first);
    if (after_first > 0) {
      EXPECT_GT(store.cache_hits(), 0u);
    }
    store.stop_server();
  });
}

TEST(BrickStore, TinyCacheEvicts) {
  const std::size_t edge = 16;
  const Volume<cdouble> truth = random_spectrum(edge, 11);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    BrickStoreConfig config;
    config.brick_edge = 4;
    config.cache_bricks = 1;  // pathological: thrash on purpose
    BrickStore store(comm, comm.is_root() ? truth : Volume<cdouble>{}, edge,
                     config);
    store.start_server();
    util::Rng rng(50 + comm.rank());
    for (int trial = 0; trial < 60; ++trial) {
      (void)store.sample(rng.uniform(0, edge - 1), rng.uniform(0, edge - 1),
                         rng.uniform(0, edge - 1));
    }
    if (store.remote_fetches() > 2) {
      EXPECT_GT(store.evictions(), 0u);
    }
    store.stop_server();
  });
}

TEST(BrickStore, RejectsBadBrickEdge) {
  vmpi::run(1, [](vmpi::Comm& comm) {
    BrickStoreConfig config;
    config.brick_edge = 5;  // does not divide 16
    EXPECT_THROW(
        (void)BrickStore(comm, Volume<cdouble>(16), 16, config),
        std::invalid_argument);
  });
}

TEST(BrickStore, OwnershipIsRoundRobin) {
  vmpi::run(3, [](vmpi::Comm& comm) {
    BrickStoreConfig config;
    config.brick_edge = 4;
    BrickStore store(comm, comm.is_root() ? Volume<cdouble>(12) : Volume<cdouble>{},
                     12, config);
    EXPECT_EQ(store.owner_of(0), 0);
    EXPECT_EQ(store.owner_of(1), 1);
    EXPECT_EQ(store.owner_of(2), 2);
    EXPECT_EQ(store.owner_of(3), 0);
  });
}

TEST(SvmMatcher, DistanceMatchesReplicatedMatcher) {
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const Volume<double> map = model.rasterize(l);
  MatchOptions options;
  options.r_map = 6.0;
  const FourierMatcher replicated(map, options);
  const auto spectrum_vol = centered_fft3(pad_volume(map, options.pad));
  const Orientation view_o{40, 100, 20};
  const Image<double> view = model.project_analytic(l, view_o);
  const auto view_spectrum = replicated.prepare_view(view);
  // prepare_view computes only the r_map disk box, all SvmMatcher reads:
  // the full padded spectrum gives the same distance bits.
  const auto full_spectrum = centered_fft2(pad_image(view, options.pad));

  for (int p : {1, 2, 3}) {
    std::vector<double> diffs(p, 1e300);
    std::vector<int> box_only(p, 0);
    vmpi::run(p, [&](vmpi::Comm& comm) {
      BrickStoreConfig config;
      config.brick_edge = 8;
      BrickStore store(comm,
                       comm.is_root() ? spectrum_vol : Volume<cdouble>{},
                       l * options.pad, config);
      store.start_server();
      SvmMatcher svm(store, l, options);
      double worst = 0.0;
      for (const Orientation o :
           {view_o, Orientation{42, 100, 20}, Orientation{40, 103, 25}}) {
        const double pruned = svm.distance(view_spectrum, o);
        worst = std::max(
            worst, std::abs(pruned - replicated.distance(view_spectrum, o)));
        const double full = svm.distance(full_spectrum, o);
        box_only[comm.rank()] +=
            std::memcmp(&pruned, &full, sizeof(double)) == 0 ? 1 : 0;
      }
      diffs[comm.rank()] = worst;
      store.stop_server();
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_LT(diffs[r], 1e-12) << "P=" << p << " rank " << r;
      EXPECT_EQ(box_only[r], 3) << "P=" << p << " rank " << r;
    }
  }
}

TEST(SvmMatcher, CountsRemoteTraffic) {
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const Volume<double> map = model.rasterize(l);
  MatchOptions options;
  options.r_map = 6.0;
  const auto spectrum_vol = centered_fft3(pad_volume(map, options.pad));
  const FourierMatcher replicated(map, options);
  const auto view_spectrum =
      replicated.prepare_view(model.project_analytic(l, {40, 100, 20}));

  std::uint64_t fetched_bytes = 0;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    BrickStoreConfig config;
    config.brick_edge = 8;
    config.cache_bricks = 2;  // force re-fetching
    BrickStore store(comm, comm.is_root() ? spectrum_vol : Volume<cdouble>{},
                     l * options.pad, config);
    store.start_server();
    SvmMatcher svm(store, l, options);
    (void)svm.distance(view_spectrum, {40, 100, 20});
    if (comm.is_root()) fetched_bytes = store.bytes_fetched();
    store.stop_server();
  });
  EXPECT_GT(fetched_bytes, 0u);
}

}  // namespace
