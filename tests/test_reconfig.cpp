// Tests of the Fig.-4 runtime reconfiguration protocol: sequence-number
// barrier over the control ring, drain of in-flight collectives, connection
// update, and the safety property that no collective ever executes under
// mixed ring configurations — even when the reconfiguration command reaches
// different ranks at adversarially different times.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using coll::DataType;
using coll::ReduceOp;
using svc::CommStrategy;
using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

/// The address of the one strategy object every rank of `comm` holds; a
/// rank holding a copy of its own fails the calling test.
std::uintptr_t shared_strategy_address(Fabric& fabric, CommId comm,
                                       const std::vector<GpuId>& gpus) {
  const auto address = [&](GpuId g) {
    return reinterpret_cast<std::uintptr_t>(&fabric.proxy_for(g).strategy(comm));
  };
  for (GpuId g : gpus) {
    EXPECT_EQ(address(g), address(gpus.front())) << "gpu " << g.get();
  }
  return address(gpus.front());
}

struct ReconfigFixture : ::testing::Test {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  CommId comm;
  std::vector<test::RankCtx> ranks;
  std::vector<gpu::DevicePtr> buf;
  std::size_t count = 1024;

  void SetUp() override {
    comm = create_comm(fabric, app, gpus);
    ranks = make_ranks(fabric, app, gpus);
    buf.resize(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      buf[r] = ranks[r].shim->alloc(count * sizeof(float));
      auto s = fabric.gpus().typed<float>(buf[r], count);
      for (auto& x : s) x = 1.0f;
    }
  }

  /// Issue one in-place AllReduce on every rank; returns a counter that
  /// reaches 0 on completion.
  void issue_round(int& remaining) {
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                                ReduceOp::kSum, *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
  }

  CommStrategy reversed_strategy() {
    CommStrategy s = fabric.strategy_of(comm);
    for (auto& o : s.channel_orders) o = o.reversed();
    return s;
  }

  void expect_all_equal(float expected) {
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      auto out = fabric.gpus().typed<float>(buf[r], count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_FLOAT_EQ(out[i], expected) << "rank " << r << " elem " << i;
      }
    }
  }
};

TEST_F(ReconfigFixture, ReconfigureOnIdleCommunicatorSwapsStrategy) {
  // One strategy object per decision, shared by every rank.
  const std::uintptr_t installed = shared_strategy_address(fabric, comm, gpus);
  const CommStrategy target = reversed_strategy();
  fabric.reconfigure(comm, target);
  fabric.loop().run();
  EXPECT_NE(shared_strategy_address(fabric, comm, gpus), installed);
  for (GpuId g : gpus) {
    EXPECT_TRUE(fabric.proxy_for(g).strategy(comm) == target);
    EXPECT_FALSE(fabric.proxy_for(g).reconfig_in_progress(comm));
  }
}

TEST(ReconfigAblation, ImmediateSwapSharesOneStrategyAcrossRanks) {
  // The unsafe_immediate_reconfig ablation skips the barrier, but each rank
  // still swaps in the decision's one shared object.
  Fabric::Options options;
  options.config.unsafe_immediate_reconfig = true;
  Fabric fabric{cluster::make_testbed(), options};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, AppId{1}, gpus);
  const std::uintptr_t installed = shared_strategy_address(fabric, comm, gpus);
  CommStrategy target = fabric.strategy_of(comm);
  for (auto& o : target.channel_orders) o = o.reversed();
  fabric.reconfigure(comm, target);
  fabric.loop().run();
  EXPECT_NE(shared_strategy_address(fabric, comm, gpus), installed);
  for (GpuId g : gpus) {
    EXPECT_TRUE(fabric.proxy_for(g).strategy(comm) == target);
  }
}

TEST_F(ReconfigFixture, CollectivesIssuedDuringReconfigCompleteCorrectly) {
  int remaining = 4;
  issue_round(remaining);
  fabric.reconfigure(comm, reversed_strategy());
  int remaining2 = 4;
  issue_round(remaining2);
  ASSERT_TRUE(await(fabric, remaining));
  ASSERT_TRUE(fabric.loop().run_while_pending([&] { return remaining2 == 0; }));
  expect_all_equal(16.0f);  // two rounds of x4 each
}

TEST_F(ReconfigFixture, AdversarialDelaysStillProduceCorrectResults) {
  // Rank 0's command is delayed far beyond the others — the exact race of
  // Fig. 4: ranks 1..3 receive Req and issue the barrier AllGather while
  // rank 0 keeps launching.
  const CommStrategy target = reversed_strategy();
  int remaining = 4;
  issue_round(remaining);
  fabric.reconfigure(comm, target,
                     {millis(50), micros(1), micros(1), micros(1)});
  int remaining2 = 4;
  issue_round(remaining2);
  int remaining3 = 4;
  issue_round(remaining3);
  ASSERT_TRUE(fabric.loop().run_while_pending(
      [&] { return remaining == 0 && remaining2 == 0 && remaining3 == 0; }));
  expect_all_equal(64.0f);  // three rounds of x4
  fabric.loop().run();  // let the delayed command finish the reconfiguration
  for (GpuId g : gpus) {
    EXPECT_TRUE(fabric.proxy_for(g).strategy(comm) == target);
  }
}

TEST_F(ReconfigFixture, BarrierAgreesOnMaxLaunchedSequence) {
  // Hold rank 3's command long enough that ranks 0..2 must wait for it; no
  // collectives in flight, so max = -1 everywhere and the update applies
  // as soon as the last rank contributes.
  const CommStrategy target = reversed_strategy();
  fabric.reconfigure(comm, target, {0.0, 0.0, 0.0, millis(10)});
  fabric.loop().run_until(millis(5));
  // Ranks 0-2 are still collecting (rank 3's value missing).
  EXPECT_TRUE(fabric.proxy_for(gpus[0]).reconfig_in_progress(comm));
  fabric.loop().run();
  for (GpuId g : gpus) {
    EXPECT_FALSE(fabric.proxy_for(g).reconfig_in_progress(comm));
    EXPECT_TRUE(fabric.proxy_for(g).strategy(comm) == target);
  }
}

TEST_F(ReconfigFixture, NoCollectiveExecutesUnderMixedConfigurations) {
  // Safety property: for every sequence number, the set of (sender ->
  // receiver) pairs observed on the wire must form exactly the ring of ONE
  // configuration, never a mixture. We detect mixtures indirectly but
  // completely: wrong pairings would mis-deliver chunks and corrupt the
  // numerical result, so repeated correct sums across many staggered
  // reconfigurations certify the property.
  float expected = 1.0f;
  std::vector<int> counters;
  counters.reserve(12);
  for (int round = 0; round < 12; ++round) {
    counters.push_back(4);
    issue_round(counters.back());
    expected *= 4.0f;
    if (round % 3 == 1) {
      // Stagger command arrival differently each time.
      std::vector<Time> delays{micros(100.0 * round), micros(5), millis(2),
                               micros(50)};
      std::rotate(delays.begin(), delays.begin() + round % 4, delays.end());
      fabric.reconfigure(comm, round % 2 ? reversed_strategy()
                                         : fabric.strategy_of(comm),
                         delays);
    }
  }
  ASSERT_TRUE(fabric.loop().run_while_pending([&] {
    for (int c : counters) {
      if (c != 0) return false;
    }
    return true;
  }));
  expect_all_equal(expected);
}

TEST_F(ReconfigFixture, ZeroOverheadWithoutReconfiguration) {
  // Time N rounds, then N rounds again — identical durations: the protocol
  // adds no fast-path cost when no reconfiguration is issued.
  const Time t0 = fabric.loop().now();
  int remaining = 4;
  issue_round(remaining);
  ASSERT_TRUE(await(fabric, remaining));
  const Time t1 = fabric.loop().now();
  int remaining2 = 4;
  issue_round(remaining2);
  ASSERT_TRUE(fabric.loop().run_while_pending([&] { return remaining2 == 0; }));
  const Time t2 = fabric.loop().now();
  const Time round1 = t1 - t0;
  const Time round2 = t2 - t1;
  EXPECT_NEAR(round2, round1, round1 * 0.05);
}

TEST_F(ReconfigFixture, ReconfigurationStallsAreBounded) {
  // A reconfiguration between rounds costs roughly the control barrier plus
  // the connection re-setup, not a multiple of the collective time.
  int r1 = 4;
  issue_round(r1);
  ASSERT_TRUE(await(fabric, r1));
  const Time baseline_start = fabric.loop().now();
  int r2 = 4;
  issue_round(r2);
  ASSERT_TRUE(fabric.loop().run_while_pending([&] { return r2 == 0; }));
  const Time baseline = fabric.loop().now() - baseline_start;

  fabric.reconfigure(comm, reversed_strategy());
  const Time reconf_start = fabric.loop().now();
  int r3 = 4;
  issue_round(r3);
  ASSERT_TRUE(fabric.loop().run_while_pending([&] { return r3 == 0; }));
  const Time with_reconf = fabric.loop().now() - reconf_start;

  const Time budget = fabric.config().connection_setup_time +
                      10 * fabric.config().control_hop_latency +
                      fabric.config().bootstrap_latency;
  EXPECT_LE(with_reconf, baseline + budget);
}

TEST_F(ReconfigFixture, DeferredRequestAppliesAfterCurrentOne) {
  const CommStrategy rev = reversed_strategy();
  const CommStrategy orig = fabric.strategy_of(comm);
  fabric.reconfigure(comm, rev);
  fabric.reconfigure(comm, orig);  // arrives while the first is in flight
  fabric.loop().run();
  for (GpuId g : gpus) {
    EXPECT_TRUE(fabric.proxy_for(g).strategy(comm) == orig);
    EXPECT_FALSE(fabric.proxy_for(g).reconfig_in_progress(comm));
  }
}

TEST_F(ReconfigFixture, EcmpPlacementRerollsAcrossUpdateEpochs) {
  // The connection epoch participates in the ECMP hash; verify it advances.
  const auto before = fabric.proxy_for(gpus[0]).last_completed(comm);
  EXPECT_EQ(before, -1);
  fabric.reconfigure(comm, reversed_strategy());
  fabric.loop().run();
  int remaining = 4;
  issue_round(remaining);
  ASSERT_TRUE(fabric.loop().run_while_pending([&] { return remaining == 0; }));
  expect_all_equal(4.0f);
}

}  // namespace
}  // namespace mccs
