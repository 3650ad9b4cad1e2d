#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "por/vmpi/runtime.hpp"

namespace {

using namespace por::vmpi;

TEST(Runtime, SingleRankRuns) {
  int ran = 0;
  run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    EXPECT_TRUE(comm.is_root());
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(Runtime, PropagatesRankException) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     // Throw before any communication so peers cannot
                     // block on a missing message.
                     if (comm.rank() == 1) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(Runtime, RethrowsLowestRankedException) {
  // Rank 1 throws at once, rank 0 only after a pause: the caller still
  // sees rank 0's error, whichever rank threw first.
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_THROW(run(2,
                     [](Comm& comm) {
                       if (comm.rank() == 1) throw std::runtime_error("late");
                       std::this_thread::sleep_for(std::chrono::milliseconds(5));
                       throw std::invalid_argument("root");
                     }),
                 std::invalid_argument);
  }
}

TEST(PointToPoint, DeliversInOrder) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 111);
      comm.send_value(1, 7, 222);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 7), 111);
      EXPECT_EQ(comm.recv_value<int>(0, 7), 222);
    }
  });
}

TEST(PointToPoint, TagsAreIndependentChannels) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 10);
      comm.send_value(1, 2, 20);
    } else {
      // Receive in the opposite tag order.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 20);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 10);
    }
  });
}

TEST(PointToPoint, SelfSendWorks) {
  run(1, [](Comm& comm) {
    comm.send_value(0, 3, 42.5);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 3), 42.5);
  });
}

TEST(PointToPoint, EmptyMessage) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 0).empty());
    }
  });
}

TEST(Collectives, BcastReplicatesRootData) {
  for (int p : {1, 2, 4}) {
    run(p, [](Comm& comm) {
      std::vector<int> data;
      if (comm.is_root()) data = {1, 2, 3, 4};
      comm.bcast(0, data);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3, 4}));
    });
  }
}

TEST(Collectives, ScatterDealsEqualChunks) {
  run(4, [](Comm& comm) {
    std::vector<int> all;
    if (comm.is_root()) {
      all.resize(20);
      std::iota(all.begin(), all.end(), 0);
    }
    const std::vector<int> mine = comm.scatter(0, all, {5, 5, 5, 5});
    ASSERT_EQ(mine.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(mine[i], comm.rank() * 5 + i);
  });
}

TEST(Collectives, ScatterDealsUnequalChunks) {
  // Chunks of any size, including none.
  run(4, [](Comm& comm) {
    std::vector<int> all;
    if (comm.is_root()) {
      all.resize(10);
      std::iota(all.begin(), all.end(), 0);
    }
    const std::vector<std::size_t> counts{3, 0, 5, 2};
    const std::vector<int> mine = comm.scatter(0, all, counts);
    std::size_t begin = 0;
    for (int r = 0; r < comm.rank(); ++r) begin += counts[r];
    ASSERT_EQ(mine.size(), counts[comm.rank()]);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i], static_cast<int>(begin + i));
    }
  });
}

TEST(Collectives, GatherConcatenatesInRankOrder) {
  run(3, [](Comm& comm) {
    const std::vector<int> mine{comm.rank() * 10, comm.rank() * 10 + 1};
    const std::vector<int> all = comm.gather(0, mine);
    if (comm.is_root()) {
      EXPECT_EQ(all, (std::vector<int>{0, 1, 10, 11, 20, 21}));
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Collectives, AllgatherGivesEveryoneEverything) {
  for (int p : {1, 2, 3, 5}) {
    run(p, [p](Comm& comm) {
      const std::vector<int> mine{comm.rank(), comm.rank() + 100};
      const std::vector<int> all = comm.allgather(mine);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[2 * r], r);
        EXPECT_EQ(all[2 * r + 1], r + 100);
      }
    });
  }
}

TEST(Collectives, AlltoallTransposesBlocks) {
  run(3, [](Comm& comm) {
    std::vector<std::vector<int>> outgoing(3);
    for (int r = 0; r < 3; ++r) outgoing[r] = {comm.rank() * 10 + r};
    const auto incoming = comm.alltoall(outgoing);
    ASSERT_EQ(incoming.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(incoming[r].size(), 1u);
      EXPECT_EQ(incoming[r][0], r * 10 + comm.rank());
    }
  });
}

TEST(Collectives, ReduceAndAllreduce) {
  run(4, [](Comm& comm) {
    const std::vector<long> mine{static_cast<long>(comm.rank() + 1), 10};
    const auto sum = comm.allreduce(mine, ReduceOp::kSum);
    EXPECT_EQ(sum[0], 1 + 2 + 3 + 4);
    EXPECT_EQ(sum[1], 40);
    const auto mx = comm.allreduce(mine, ReduceOp::kMax);
    EXPECT_EQ(mx[0], 4);
    const auto mn = comm.allreduce(mine, ReduceOp::kMin);
    EXPECT_EQ(mn[0], 1);
  });
}

TEST(Collectives, AllreduceScalarHelper) {
  run(3, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_value(1.5, ReduceOp::kSum), 4.5);
  });
}

TEST(Collectives, BarrierSynchronizesPhases) {
  // Every rank bumps a shared atomic before the barrier; after the
  // barrier all bumps must be visible.
  std::atomic<int> before{0};
  run(4, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(before.load(), 4);
    comm.barrier();  // barriers are reusable
  });
}

TEST(PointToPoint, TypedRecvRejectsMismatchedPayload) {
  // Rank 0 sends 3 raw chars; rank 1's recv<int> must refuse to
  // reinterpret them (3 % sizeof(int) != 0) and name the source and
  // tag in the error so a hang-turned-throw is debuggable.
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 9, std::vector<char>{1, 2, 3});
    } else {
      try {
        (void)comm.recv<int>(0, 9);
        FAIL() << "recv<int> accepted a 3-byte payload";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("from rank 0"), std::string::npos) << what;
        EXPECT_NE(what.find("tag 9"), std::string::npos) << what;
        EXPECT_NE(what.find("3 bytes"), std::string::npos) << what;
      }
    }
  });
}

TEST(PointToPoint, RecvValueRejectsWrongElementCount) {
  // recv_value<T> requires exactly one element: two doubles in the
  // mailbox is a payload mismatch, not a silent truncation.
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 4, std::vector<double>{1.0, 2.0});
    } else {
      try {
        (void)comm.recv_value<double>(0, 4);
        FAIL() << "recv_value<double> accepted a two-element payload";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("vmpi: typed recv on rank 1"), std::string::npos)
            << what;
        EXPECT_NE(what.find("tag 4"), std::string::npos) << what;
      }
    }
  });
}

TEST(Traffic, CountsMessagesAndBytes) {
  const RunReport report = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(10, 1.0));
    } else {
      (void)comm.recv<double>(0, 0);
    }
  });
  EXPECT_EQ(report.messages, 1u);
  EXPECT_EQ(report.bytes, 10 * sizeof(double));
}

TEST(Traffic, PerRankAccountingAttributesToSender) {
  // Rank 0 sends two messages, rank 1 sends none: the per-sender
  // breakdown must attribute everything to rank 0.
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<int>{1, 2, 3});
      comm.send(1, 1, std::vector<int>{4});
    } else {
      (void)comm.recv<int>(0, 0);
      (void)comm.recv<int>(0, 1);
    }
    comm.barrier();  // sends are done on both sides
    // The barrier itself communicates, so only check rank 0's counts
    // dominate and the byte accounting for its payload is visible.
    EXPECT_GE(comm.traffic().rank_messages(0), 2u);
    EXPECT_GE(comm.traffic().rank_bytes(0), 4 * sizeof(int));
  });
}

TEST(Traffic, AllgatherUsesRingVolume) {
  // Ring all-gather sends (P-1) blocks per rank.
  const int p = 4;
  const std::size_t block = 8;
  const RunReport report = run(p, [&](Comm& comm) {
    (void)comm.allgather(std::vector<double>(block, 1.0));
  });
  EXPECT_EQ(report.messages, static_cast<std::uint64_t>(p * (p - 1)));
  EXPECT_EQ(report.bytes,
            static_cast<std::uint64_t>(p * (p - 1) * block * sizeof(double)));
}

}  // namespace
