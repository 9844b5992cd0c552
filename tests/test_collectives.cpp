#include "collectives/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "collectives/types.h"

namespace mccs::coll {
namespace {

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
  RingOrder o({2, 0, 3, 1});
  EXPECT_EQ(o.next_rank(2), 0);
  EXPECT_EQ(o.next_rank(1), 2);  // wrap
  EXPECT_EQ(o.prev_rank(2), 1);
}

TEST(RingOrder, ReversedReversesTraversal) {
  RingOrder o({2, 0, 3, 1});
  auto r = o.reversed();
  EXPECT_EQ(r.next_rank(0), 2);
  EXPECT_EQ(o.prev_rank(0), 2);
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

// --- schedule simulation ------------------------------------------------------------
// Execute a schedule abstractly on per-rank chunk "ledgers" to prove data
// correctness properties independent of the service implementation.

using Ledger = std::vector<std::map<int, int>>;  // per chunk: {input rank: count}

Ledger run_ring(int n, CollectiveKind kind,
                const std::vector<int>& order_vec, int root = 0) {
  RingOrder order(order_vec);
  // state[rank][chunk] = multiset of contributions (input rank -> count).
  std::vector<Ledger> state(static_cast<std::size_t>(n),
                            Ledger(static_cast<std::size_t>(n)));
  for (int r = 0; r < n; ++r) {
    const int p = order.position_of(r);
    switch (kind) {
      case CollectiveKind::kAllReduce:
      case CollectiveKind::kReduceScatter:
        for (int c = 0; c < n; ++c) state[r][static_cast<std::size_t>(c)][r] = 1;
        break;
      case CollectiveKind::kAllGather: {
        const std::size_t own =
            chunk_to_buffer_index(kind, order, static_cast<std::size_t>(p));
        state[r][own][r] = 1;
        break;
      }
      case CollectiveKind::kBroadcast:
        if (r == root) {
          for (int c = 0; c < n; ++c) state[r][static_cast<std::size_t>(c)][root] = 1;
        }
        break;
      default:
        break;
    }
  }

  std::vector<std::vector<RingStep>> steps(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const int p = order.position_of(r);
    switch (kind) {
      case CollectiveKind::kAllReduce: steps[r] = ring_allreduce_steps(n, p); break;
      case CollectiveKind::kAllGather: steps[r] = ring_allgather_steps(n, p); break;
      case CollectiveKind::kReduceScatter:
        steps[r] = ring_reducescatter_steps(n, p);
        break;
      case CollectiveKind::kBroadcast: {
        const int rel = ((p - order.position_of(root)) % n + n) % n;
        steps[r] = ring_broadcast_steps(n, rel);
        break;
      }
      default:
        break;
    }
  }

  // Message-driven execution mirroring the service executor: each rank walks
  // its steps in order; a send is applied at the receiver immediately and
  // tagged; a step completes once its send is out and its recv tag arrived.
  std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
  std::vector<bool> sent(static_cast<std::size_t>(n), false);
  std::vector<std::set<int>> arrived(static_cast<std::size_t>(n));
  bool progress = true;
  auto all_done = [&] {
    for (int r = 0; r < n; ++r)
      if (cur[static_cast<std::size_t>(r)] < steps[r].size()) return false;
    return true;
  };
  while (!all_done()) {
    EXPECT_TRUE(progress) << "schedule deadlocked";
    if (!progress) break;
    progress = false;
    for (int r = 0; r < n; ++r) {
      auto& c = cur[static_cast<std::size_t>(r)];
      if (c >= steps[r].size()) continue;
      const RingStep& st = steps[r][c];
      if (st.has_send() && !sent[static_cast<std::size_t>(r)]) {
        const std::size_t buf = chunk_to_buffer_index(kind, order, st.send_chunk);
        const int dst = order.next_rank(r);
        auto& dst_chunk = state[dst][buf];
        if (st.reduce) {
          for (auto& [who, cnt] : state[r][buf]) dst_chunk[who] += cnt;
        } else {
          dst_chunk = state[r][buf];
        }
        arrived[static_cast<std::size_t>(dst)].insert(st.send_tag);
        sent[static_cast<std::size_t>(r)] = true;
        progress = true;
      }
      const bool send_ok = !st.has_send() || sent[static_cast<std::size_t>(r)];
      const bool recv_ok =
          !st.has_recv() || arrived[static_cast<std::size_t>(r)].count(st.recv_tag) > 0;
      if (send_ok && recv_ok) {
        ++c;
        sent[static_cast<std::size_t>(r)] = false;
        progress = true;
      }
    }
  }

  // Flatten: per rank, map keyed chunk*n + contributor -> count.
  Ledger out(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      for (auto& [who, cnt] : state[r][static_cast<std::size_t>(c)]) {
        out[r][c * n + who] = cnt;
      }
    }
  }
  return out;
}

class RingScheduleP : public ::testing::TestWithParam<int> {};

TEST_P(RingScheduleP, AllReduceEveryRankSumsEveryInputExactlyOnce) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  auto state = run_ring(n, CollectiveKind::kAllReduce, order);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      for (int who = 0; who < n; ++who) {
        EXPECT_EQ(state[r].at(c * n + who), 1)
            << "rank " << r << " chunk " << c << " contributor " << who;
      }
    }
  }
}

TEST_P(RingScheduleP, AllReduceCorrectUnderArbitraryRingOrder) {
  const int n = GetParam();
  // A rotated+reversed permutation exercises non-identity orders.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::rotate(order.begin(), order.begin() + 1, order.end());
  std::reverse(order.begin() + 1, order.end());
  auto state = run_ring(n, CollectiveKind::kAllReduce, order);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      for (int who = 0; who < n; ++who)
        EXPECT_EQ(state[r].at(c * n + who), 1);
}

TEST_P(RingScheduleP, AllGatherEveryRankHoldsEveryContribution) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::rotate(order.begin(), order.begin() + n / 2, order.end());
  auto state = run_ring(n, CollectiveKind::kAllGather, order);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      // Buffer chunk c must hold exactly rank c's contribution.
      EXPECT_EQ(state[r].count(c * n + c), 1u) << "rank " << r << " chunk " << c;
      EXPECT_EQ(state[r].at(c * n + c), 1);
      for (int who = 0; who < n; ++who) {
        if (who != c) {
          EXPECT_EQ(state[r].count(c * n + who), 0u);
        }
      }
    }
  }
}

TEST_P(RingScheduleP, ReduceScatterOwnedChunkHasAllContributions) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  auto state = run_ring(n, CollectiveKind::kReduceScatter, order);
  RingOrder ro(order);
  for (int r = 0; r < n; ++r) {
    const int p = ro.position_of(r);
    const std::size_t owned_pos = reducescatter_owned_chunk(n, p);
    const std::size_t buf = chunk_to_buffer_index(CollectiveKind::kReduceScatter, ro, owned_pos);
    EXPECT_EQ(buf, static_cast<std::size_t>(r)) << "owned chunk must be own rank";
    for (int who = 0; who < n; ++who) {
      EXPECT_EQ(state[r].at(static_cast<int>(buf) * n + who), 1)
          << "rank " << r << " contributor " << who;
    }
  }
}

TEST_P(RingScheduleP, BroadcastDeliversRootDataEverywhere) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const int root = n / 2;
  auto state = run_ring(n, CollectiveKind::kBroadcast, order, root);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(state[r].at(c * n + root), 1) << "rank " << r << " chunk " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingScheduleP, ::testing::Values(2, 3, 4, 5, 8, 16));

// --- step counts ----------------------------------------------------------------

TEST(RingSchedules, AllReduceHasTwoNMinusTwoSteps) {
  EXPECT_EQ(ring_allreduce_steps(8, 3).size(), 14u);
}
TEST(RingSchedules, AllGatherHasNMinusOneSteps) {
  EXPECT_EQ(ring_allgather_steps(8, 3).size(), 7u);
}
TEST(RingSchedules, ReduceScatterStepsReduce) {
  for (const auto& s : ring_reducescatter_steps(4, 1)) EXPECT_TRUE(s.reduce);
}
TEST(RingSchedules, AllGatherStepsCopy) {
  for (const auto& s : ring_allgather_steps(4, 1)) EXPECT_FALSE(s.reduce);
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
