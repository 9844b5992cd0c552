// Tests of the collective plan cache (mccs/coll_plan.h): hit/miss
// accounting per rank and in the per-GPU registry series, invalidation when
// the strategy changes, and structural equality of cached vs freshly built
// plans over randomized shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "helpers.h"
#include "mccs/coll_plan.h"
#include "mccs/fabric.h"
#include "mccs/proxy_engine.h"
#include "mccs/strategy.h"
#include "policy/controller.h"

namespace mccs {
namespace {

using coll::CollectiveKind;
using coll::DataType;
using coll::ReduceOp;
using svc::CollPlan;
using svc::CommStrategy;
using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

struct PlanCacheFixture : ::testing::Test {
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
    }
  }

  void fill_ones() {
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      auto s = fabric.gpus().typed<float>(buf[r], count);
      for (auto& x : s) x = 1.0f;
    }
  }

  /// One in-place AllReduce round on every rank, awaited.
  void run_round() {
    int remaining = static_cast<int>(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                                ReduceOp::kSum, *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
    ASSERT_TRUE(await(fabric, remaining));
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

TEST_F(PlanCacheFixture, RepeatedLaunchesHitTheCache) {
  fill_ones();
  constexpr int kRounds = 5;
  for (int i = 0; i < kRounds; ++i) run_round();
  for (GpuId g : gpus) {
    const auto st = fabric.proxy_for(g).plan_cache_stats(comm);
    EXPECT_EQ(st.misses, 1u) << "gpu " << g.get();
    EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kRounds - 1))
        << "gpu " << g.get();
    EXPECT_EQ(fabric.proxy_for(g).plan_cache_size(comm), 1u);
  }
}

TEST_F(PlanCacheFixture, DistinctShapesGetDistinctEntries) {
  fill_ones();
  run_round();
  // Same kind, different count => new entry; different kind => new entry.
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count / 2,
                              DataType::kFloat32, ReduceOp::kSum,
                              *ranks[r].stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  int remaining2 = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->broadcast(comm, buf[r], buf[r], count, DataType::kFloat32, 0,
                             *ranks[r].stream,
                             [&remaining2](Time) { --remaining2; });
  }
  ASSERT_TRUE(await(fabric, remaining2));
  for (GpuId g : gpus) {
    EXPECT_EQ(fabric.proxy_for(g).plan_cache_size(comm), 3u);
    EXPECT_EQ(fabric.proxy_for(g).plan_cache_stats(comm).misses, 3u);
  }
}

TEST_F(PlanCacheFixture, ReconfigurationInvalidatesCachedPlans) {
  fill_ones();
  run_round();
  std::vector<std::shared_ptr<const CollPlan>> before;
  for (GpuId g : gpus) {
    auto p = fabric.proxy_for(g).cached_plan(comm, CollectiveKind::kAllReduce,
                                             count, DataType::kFloat32, 0);
    ASSERT_NE(p, nullptr);
    before.push_back(p);
  }

  CommStrategy target = fabric.strategy_of(comm);
  for (auto& o : target.channel_orders) o = o.reversed();
  fabric.reconfigure(comm, target);
  fabric.loop().run();

  // The flush is lazy (on the first acquire under the new strategy), and the
  // post-reconfig plan must differ structurally: the ring direction reversed.
  fill_ones();
  run_round();
  expect_all_equal(4.0f);
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    const auto& proxy = fabric.proxy_for(gpus[r]);
    const auto st = proxy.plan_cache_stats(comm);
    EXPECT_GE(st.invalidations, 1u) << "rank " << r;
    EXPECT_EQ(st.misses, 2u) << "rank " << r;
    auto after = proxy.cached_plan(comm, CollectiveKind::kAllReduce, count,
                                   DataType::kFloat32, 0);
    ASSERT_NE(after, nullptr);
    EXPECT_NE(after, before[r]) << "rank " << r;
    EXPECT_FALSE(*after == *before[r])
        << "rank " << r << ": reversed ring must change the plan";
  }
}

TEST_F(PlanCacheFixture, AlgorithmSwapUnderLoadThroughTheBarrier) {
  // The satellite regression for the algorithm-keyed plan cache: swap a live
  // communicator's algorithm while a round is in flight. The Fig.-4 barrier
  // drains the old plan, the swap reconfigures, and the cache must compile a
  // tree plan instead of replaying the ring entry.
  policy::Controller ctl(fabric);
  ctl.set_flow_policy(policy::Controller::FlowPolicy::kEcmp);

  fill_ones();
  run_round();
  expect_all_equal(4.0f);
  std::vector<std::shared_ptr<const CollPlan>> before;
  for (GpuId g : gpus) {
    before.push_back(fabric.proxy_for(g).cached_plan(
        comm, CollectiveKind::kAllReduce, count, DataType::kFloat32, 0));
    ASSERT_NE(before.back(), nullptr);
  }

  // Launch the next round, then swap before the loop runs it: the launches
  // are in flight when the reconfiguration arrives.
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(ctl.swap_algorithm(comm, coll::Algorithm::kTree, 4));
  ASSERT_TRUE(await(fabric, remaining));
  expect_all_equal(16.0f);

  // A repeat of the same swap is a no-op.
  EXPECT_FALSE(ctl.swap_algorithm(comm, coll::Algorithm::kTree, 4));
  EXPECT_EQ(fabric.strategy_of(comm).algorithm, coll::Algorithm::kTree);
  EXPECT_EQ(fabric.strategy_of(comm).tree_pipeline_chunks, 4u);

  // The round after the swap must run the tree plan, not the ring entry.
  run_round();
  expect_all_equal(64.0f);
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    const auto& proxy = fabric.proxy_for(gpus[r]);
    EXPECT_GE(proxy.plan_cache_stats(comm).invalidations, 1u) << "rank " << r;
    auto after = proxy.cached_plan(comm, CollectiveKind::kAllReduce, count,
                                   DataType::kFloat32, 0);
    ASSERT_NE(after, nullptr);
    EXPECT_FALSE(*after == *before[r])
        << "rank " << r << ": the swap must recompile the plan";
  }
}

TEST(PlanCacheCounters, GpuSeriesKeepTheCountsOfTornDownCommunicators) {
  // Two tenants' communicators share GPUs 0 and 2. The registry's plan-cache
  // series are per GPU, so their fabric-wide totals are the ranks' own counts
  // summed, and neither the orderly destroy of one communicator nor the kill
  // of the other takes any count away.
  Fabric fabric{cluster::make_testbed()};
  const telemetry::MetricsRegistry& reg = fabric.telemetry().metrics();
  struct Tenant {
    AppId app;
    std::vector<GpuId> gpus;
    CommId comm{};
    std::vector<test::RankCtx> ranks{};
    std::vector<gpu::DevicePtr> buf{};
  };
  std::vector<Tenant> tenants{
      {AppId{1}, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}}},
      {AppId{2}, {GpuId{0}, GpuId{2}}}};
  const std::size_t count = 256;
  for (Tenant& t : tenants) {
    t.comm = create_comm(fabric, t.app, t.gpus);
    t.ranks = make_ranks(fabric, t.app, t.gpus);
    for (const test::RankCtx& rank : t.ranks) {
      t.buf.push_back(rank.shim->alloc(count * sizeof(float)));
    }
  }
  const auto run_rounds = [&](const Tenant& t, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      int remaining = static_cast<int>(t.gpus.size());
      for (std::size_t r = 0; r < t.gpus.size(); ++r) {
        t.ranks[r].shim->all_reduce(t.comm, t.buf[r], t.buf[r], count,
                                    DataType::kFloat32, ReduceOp::kSum,
                                    *t.ranks[r].stream,
                                    [&remaining](Time) { --remaining; });
      }
      ASSERT_TRUE(await(fabric, remaining));
    }
  };
  const auto rank_hits = [&](const Tenant& t) {
    std::uint64_t hits = 0;
    for (GpuId g : t.gpus) {
      hits += fabric.proxy_for(g).plan_cache_stats(t.comm).hits;
    }
    return hits;
  };
  std::vector<std::uint64_t> totals;
  const auto total = [&] {
    totals.push_back(reg.counter_total("plan_cache_hits"));
    return totals.back();
  };
  const Tenant& destroyed = tenants[0];
  const Tenant& killed = tenants[1];

  run_rounds(destroyed, 3);
  run_rounds(killed, 4);
  const std::uint64_t destroyed_hits = rank_hits(destroyed);
  EXPECT_EQ(destroyed_hits, 2u * destroyed.gpus.size());
  EXPECT_EQ(total(), destroyed_hits + rank_hits(killed));
  for (const test::RankCtx& rank : destroyed.ranks) {
    rank.shim->comm_destroy(destroyed.comm);
  }
  fabric.loop().run();
  EXPECT_FALSE(fabric.proxy_for(GpuId{0}).has_communicator(destroyed.comm));
  EXPECT_EQ(total(), destroyed_hits + rank_hits(killed));

  run_rounds(killed, 2);
  const std::uint64_t killed_hits = rank_hits(killed);
  EXPECT_EQ(killed_hits, 5u * killed.gpus.size());
  EXPECT_EQ(total(), destroyed_hits + killed_hits);
  fabric.kill_app(killed.app);
  fabric.loop().run();
  EXPECT_EQ(total(), destroyed_hits + killed_hits);

  EXPECT_TRUE(std::is_sorted(totals.begin(), totals.end()))
      << "the fabric-wide plan-cache hits fell at a teardown";
  EXPECT_EQ(reg.counter_series("plan_cache_hits"), fabric.cluster().gpu_count());
}

TEST(PlanCacheKey, SameEpochAlgorithmSwapNeverServesTheStalePlan) {
  // A cache holds the plans of the one strategy object it was last handed.
  // Handed another, here differing from the last only in algorithm and then
  // only in tree pipeline chunks, it drops them and compiles, so it never
  // serves the previous strategy's plan; handed the same object, it hits.
  const cluster::Cluster cl = cluster::make_testbed();
  svc::CommInfo info;
  info.id = CommId{7};
  info.app = AppId{1};
  info.nranks = 4;
  info.gpus = {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const svc::CommSetup setup{std::make_shared<const svc::CommInfo>(info), 1};
  const std::vector<int> base = {0, 1, 2, 3};
  CommStrategy ring;
  ring.channel_orders = svc::make_channel_orders(base, info.gpus, cl, 1);
  CommStrategy tree = ring;
  tree.algorithm = coll::Algorithm::kTree;
  CommStrategy tree_fine = tree;
  tree_fine.tree_pipeline_chunks = 2;

  telemetry::Counter hits, misses_total, invalidations;
  svc::CollPlanCache cache{{hits, misses_total, invalidations}};
  const auto kind = CollectiveKind::kAllReduce;
  std::shared_ptr<const CommStrategy> previous_strategy;
  std::shared_ptr<const CollPlan> previous;
  std::uint64_t misses = 0;
  for (const CommStrategy& s : {ring, tree, tree_fine}) {
    const auto strategy = std::make_shared<const CommStrategy>(s);
    const auto plan = cache.acquire(setup, strategy, kind, 1024,
                                    DataType::kFloat32, 0);
    EXPECT_EQ(cache.stats().misses, ++misses);
    const auto fresh =
        svc::build_coll_plan(setup, s, kind, 1024, DataType::kFloat32, 0);
    EXPECT_TRUE(*plan == *fresh);
    if (previous != nullptr) {
      EXPECT_FALSE(*plan == *previous);
      EXPECT_EQ(cache.peek(previous_strategy, kind, 1024, DataType::kFloat32, 0),
                nullptr);
    }
    EXPECT_EQ(cache.acquire(setup, strategy, kind, 1024,
                            DataType::kFloat32, 0),
              plan);
    EXPECT_EQ(cache.peek(strategy, kind, 1024, DataType::kFloat32, 0), plan);
    previous_strategy = strategy;
    previous = plan;
  }
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.size(), 1u);
  // The GPU-wide counters the cache adds into read the same as its own.
  EXPECT_EQ(hits.value(), 3u);
  EXPECT_EQ(misses_total.value(), misses);
  EXPECT_EQ(invalidations.value(), 2u);
}

// --- property test: cached plans are structurally identical to fresh builds --

CollectiveKind random_kind(Rng& rng) {
  static const CollectiveKind kinds[] = {
      CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
      CollectiveKind::kReduceScatter, CollectiveKind::kBroadcast,
      CollectiveKind::kReduce, CollectiveKind::kAllToAll,
      CollectiveKind::kGather, CollectiveKind::kScatter};
  return kinds[rng.below(std::size(kinds))];
}

TEST(PlanCacheProperty, CachedPlanEqualsFreshBuildOverRandomShapes) {
  const cluster::Cluster cl = cluster::make_testbed();
  Rng rng(20240806);
  const std::vector<std::vector<GpuId>> comm_shapes = {
      {GpuId{0}, GpuId{4}},                      // 2 ranks, cross host
      {GpuId{0}, GpuId{1}},                      // 2 ranks, one host
      {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}},  // 4 ranks, one per host
      {GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3},   // all 8 GPUs
       GpuId{4}, GpuId{5}, GpuId{6}, GpuId{7}},
  };

  for (int trial = 0; trial < 200; ++trial) {
    const auto& gpus = comm_shapes[rng.below(comm_shapes.size())];
    const int nranks = static_cast<int>(gpus.size());

    svc::CommInfo info;
    info.id = CommId{static_cast<std::uint32_t>(trial)};
    info.app = AppId{1};
    info.nranks = nranks;
    info.gpus = gpus;
    const svc::CommSetup setup{std::make_shared<const svc::CommInfo>(info),
                               static_cast<int>(rng.below(nranks))};

    std::vector<int> base(nranks);
    for (int r = 0; r < nranks; ++r) base[r] = r;
    rng.shuffle(base);
    CommStrategy strategy;
    const int max_channels = nranks > 4 ? 2 : 1;
    strategy.channel_orders = svc::make_channel_orders(
        base, gpus, cl, 1 + static_cast<int>(rng.below(max_channels)));
    const CollectiveKind kind = random_kind(rng);
    if ((kind == CollectiveKind::kAllReduce ||
         kind == CollectiveKind::kBroadcast ||
         kind == CollectiveKind::kReduce) &&
        rng.below(2) == 0) {
      strategy.algorithm = coll::Algorithm::kTree;
    }

    const std::size_t count = 1 + rng.below(5000);
    const DataType dtype =
        rng.below(2) == 0 ? DataType::kFloat32 : DataType::kInt64;
    const int root = static_cast<int>(rng.below(nranks));

    telemetry::Counter hits, misses, invalidations;
    svc::CollPlanCache cache{{hits, misses, invalidations}};
    const auto shared = std::make_shared<const CommStrategy>(strategy);
    const auto first =
        cache.acquire(setup, shared, kind, count, dtype, root);
    const auto cached =
        cache.acquire(setup, shared, kind, count, dtype, root);
    const auto fresh =
        svc::build_coll_plan(setup, strategy, kind, count, dtype, root);

    ASSERT_EQ(first, cached) << "second acquire must be a hit, trial " << trial;
    ASSERT_NE(cached, fresh);
    ASSERT_TRUE(*cached == *fresh)
        << "trial " << trial << ": kind " << coll::to_string(kind) << " count "
        << count << " nranks " << nranks << " rank " << setup.rank << " root "
        << root << " channels " << strategy.num_channels();
  }
}

}  // namespace
}  // namespace mccs
