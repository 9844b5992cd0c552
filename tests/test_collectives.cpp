#include "collectives/ring.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "collectives/compiler.h"
#include "collectives/schedule.h"
#include "collectives/types.h"

namespace mccs::coll {
namespace {

/// Rank `rank`'s compiled ring schedule of `kind` over `order`.
ChannelSchedule compiled_ring(CollectiveKind kind, const RingOrder& order,
                              int rank) {
  CompileInput in;
  in.kind = kind;
  in.algorithm = Algorithm::kRing;
  in.nranks = static_cast<int>(order.size());
  in.rank = rank;
  in.order = &order;
  return compile_collective(in);
}

// --- RingOrder ----------------------------------------------------------------

TEST(RingOrder, IdentityMapsPositionsToRanks) {
  auto o = RingOrder::identity(4);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(o.rank_at(p), p);
  EXPECT_EQ(o.rank_at(4), 0);   // wraps
  EXPECT_EQ(o.rank_at(-1), 3);  // wraps backwards
}

TEST(RingOrder, PositionOfInvertsRankAt) {
  RingOrder o({2, 0, 3, 1});
  for (int p = 0; p < 4; ++p) EXPECT_EQ(o.position_of(o.rank_at(p)), p);
}

TEST(RingOrder, NextAndPrevFollowTheRing) {
  // The ring pass sends to a rank's successor in ring order and receives
  // from its predecessor, wrapping past the last position.
  RingOrder o({2, 0, 3, 1});
  const auto peers = [&o](int rank, bool sends) {
    std::set<int> out;
    for (const CommStep& s :
         compiled_ring(CollectiveKind::kAllGather, o, rank).steps) {
      if (sends && s.has_send()) out.insert(s.send_to);
      if (!sends && s.has_recv()) out.insert(s.recv_from);
    }
    return out;
  };
  EXPECT_EQ(peers(2, true), std::set<int>{0});
  EXPECT_EQ(peers(1, true), std::set<int>{2});  // wrap
  EXPECT_EQ(peers(2, false), std::set<int>{1});
}

TEST(RingOrder, ReversedReversesTraversal) {
  RingOrder o({2, 0, 3, 1});
  auto r = o.reversed();
  EXPECT_EQ(r.order(), (std::vector<int>{1, 3, 0, 2}));
  // Each rank's successor in the reversed ring is its predecessor here.
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(r.rank_at(r.position_of(rank) + 1),
              o.rank_at(o.position_of(rank) - 1));
  }
}

TEST(RingOrder, RejectsNonPermutations) {
  EXPECT_THROW(RingOrder({0, 0, 1}), mccs::ContractViolation);
  EXPECT_THROW(RingOrder({0, 1, 5}), mccs::ContractViolation);
}

// --- chunk ranges ----------------------------------------------------------------

TEST(ChunkRange, PartitionsExactlyWithoutOverlap) {
  for (std::size_t total : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    for (std::size_t n : {1ul, 3ul, 4ul, 8ul}) {
      std::size_t covered = 0;
      for (std::size_t c = 0; c < n; ++c) {
        const auto r = chunk_range(total, n, c);
        EXPECT_EQ(r.begin_elem, covered);
        covered += r.count_elem;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

// --- ring step counts ----------------------------------------------------------------

TEST(RingSchedules, AllReduceHasTwoNMinusTwoSteps) {
  const RingOrder o = RingOrder::identity(8);
  EXPECT_EQ(compiled_ring(CollectiveKind::kAllReduce, o, 3).steps.size(), 14u);
}
TEST(RingSchedules, AllGatherHasNMinusOneSteps) {
  const RingOrder o = RingOrder::identity(8);
  EXPECT_EQ(compiled_ring(CollectiveKind::kAllGather, o, 3).steps.size(), 7u);
}
TEST(RingSchedules, ReduceScatterStepsReduce) {
  const RingOrder o = RingOrder::identity(4);
  const ChannelSchedule cs = compiled_ring(CollectiveKind::kReduceScatter, o, 1);
  EXPECT_EQ(cs.steps.size(), 3u);
  for (const CommStep& s : cs.steps) EXPECT_TRUE(s.reduce);
}
TEST(RingSchedules, AllGatherStepsCopy) {
  const RingOrder o = RingOrder::identity(4);
  const ChannelSchedule cs = compiled_ring(CollectiveKind::kAllGather, o, 1);
  EXPECT_EQ(cs.steps.size(), 3u);
  for (const CommStep& s : cs.steps) EXPECT_FALSE(s.reduce);
}

// --- bandwidth math ----------------------------------------------------------------

TEST(BandwidthMath, BusBandwidthFactorsMatchNcclTests) {
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kAllReduce, 8), 2.0 * 7 / 8);
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kAllGather, 8), 7.0 / 8);
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kReduceScatter, 4), 3.0 / 4);
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kBroadcast, 4), 1.0);
}

TEST(BandwidthMath, AlgorithmBandwidthIsSizeOverTime) {
  EXPECT_DOUBLE_EQ(algorithm_bandwidth(1000, 2.0), 500.0);
}

TEST(BandwidthMath, EdgeVolumes) {
  EXPECT_DOUBLE_EQ(allreduce_edge_volume(4, 1000), 2.0 * 3 / 4 * 1000);
}

// --- reduce_bytes ----------------------------------------------------------------

TEST(ReduceBytes, SumFloats) {
  std::vector<float> a{1, 2, 3}, b{10, 20, 30};
  reduce_bytes(std::as_writable_bytes(std::span<float>(a)),
               std::as_bytes(std::span<const float>(b)), DataType::kFloat32,
               ReduceOp::kSum);
  EXPECT_EQ(a, (std::vector<float>{11, 22, 33}));
}

TEST(ReduceBytes, MinMaxProdInts) {
  std::vector<std::int32_t> a{5, -1, 7};
  std::vector<std::int32_t> b{3, 4, 7};
  auto A = [&] { return std::as_writable_bytes(std::span<std::int32_t>(a)); };
  auto B = [&] { return std::as_bytes(std::span<const std::int32_t>(b)); };
  reduce_bytes(A(), B(), DataType::kInt32, ReduceOp::kMin);
  EXPECT_EQ(a, (std::vector<std::int32_t>{3, -1, 7}));
  reduce_bytes(A(), B(), DataType::kInt32, ReduceOp::kMax);
  EXPECT_EQ(a, (std::vector<std::int32_t>{3, 4, 7}));
  reduce_bytes(A(), B(), DataType::kInt32, ReduceOp::kProd);
  EXPECT_EQ(a, (std::vector<std::int32_t>{9, 16, 49}));
}

TEST(ReduceBytes, SizeMismatchThrows) {
  std::vector<float> a{1, 2}, b{1, 2, 3};
  EXPECT_THROW(reduce_bytes(std::as_writable_bytes(std::span<float>(a)),
                            std::as_bytes(std::span<const float>(b)),
                            DataType::kFloat32, ReduceOp::kSum),
               mccs::ContractViolation);
}

}  // namespace
}  // namespace mccs::coll
