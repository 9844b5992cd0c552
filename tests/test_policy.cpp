// Tests of the provider policies: locality-aware ring configuration,
// best-fit fair flow assignment (FFA), priority flow assignment (PFA), and
// traffic-pattern analysis for time-window scheduling.

#include <gtest/gtest.h>

#include <numeric>

#include "cluster/cluster.h"
#include "policy/flow_assign.h"
#include "policy/ring_config.h"
#include "policy/traffic_schedule.h"
#include "common/rng.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs::policy {
namespace {

// --- locality-aware ring configuration -------------------------------------------

TEST(RingConfigPolicy, TestbedOptimalRingCrossesRacksExactlyTwice) {
  auto cl = cluster::make_testbed();
  // One GPU per host, deliberately interleaved across racks.
  std::vector<GpuId> gpus{GpuId{0}, GpuId{4}, GpuId{2}, GpuId{6}};
  const auto order = locality_aware_order(gpus, cl);
  EXPECT_EQ(cross_rack_edges(order, gpus, cl), 2);
  // The user-given (identity) order zig-zags: 4 crossings.
  std::vector<int> identity{0, 1, 2, 3};
  EXPECT_EQ(cross_rack_edges(identity, gpus, cl), 4);
}

TEST(RingConfigPolicy, KeepsHostGpusContiguous) {
  auto cl = cluster::make_testbed();
  std::vector<GpuId> gpus{GpuId{1}, GpuId{6}, GpuId{0}, GpuId{7}};  // 2 hosts x 2
  const auto order = locality_aware_order(gpus, cl);
  // Positions of ranks on the same host must be adjacent in the ring.
  auto host_at = [&](int pos) {
    return cl.host_of_gpu(gpus[static_cast<std::size_t>(order[static_cast<std::size_t>(pos)])]).get();
  };
  int transitions = 0;
  for (int p = 0; p < 4; ++p) {
    if (host_at(p) != host_at((p + 1) % 4)) ++transitions;
  }
  EXPECT_EQ(transitions, 2);  // one entry + one exit per host
}

TEST(RingConfigPolicy, OptimalCrossRackNeverExceedsRandom) {
  auto cl = cluster::make_large_sim_cluster();
  mccs::Rng rng(7);
  auto all = cl.all_gpus();
  for (int trial = 0; trial < 20; ++trial) {
    rng.shuffle(all);
    std::vector<GpuId> gpus(all.begin(), all.begin() + 32);
    std::vector<int> random_order(32);
    std::iota(random_order.begin(), random_order.end(), 0);
    rng.shuffle(random_order);
    EXPECT_LE(optimal_cross_rack_edges(gpus, cl),
              cross_rack_edges(random_order, gpus, cl));
  }
}

TEST(RingConfigPolicy, StrategyChannelsMatchNicCount) {
  auto cl = cluster::make_testbed();
  std::vector<GpuId> gpus{GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3},
                          GpuId{4}, GpuId{5}, GpuId{6}, GpuId{7}};
  const auto s = locality_aware_strategy(gpus, cl);
  EXPECT_EQ(s.num_channels(), 2);  // 2 GPUs (and NICs) per host
  // Channel rings must exit each host through different GPUs.
  const auto& o0 = s.channel_orders[0];
  const auto& o1 = s.channel_orders[1];
  EXPECT_FALSE(o0 == o1);
}

// --- FFA ----------------------------------------------------------------------

struct TwoJobFixture : ::testing::Test {
  cluster::Cluster cl = cluster::make_testbed();
  net::Routing routing{cl.topology()};
  // Job A on GPU0 of every host, job B on GPU1 of every host (setup 1).
  std::vector<GpuId> gpus_a{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  std::vector<GpuId> gpus_b{GpuId{1}, GpuId{3}, GpuId{5}, GpuId{7}};
  svc::CommStrategy strat_a = locality_aware_strategy(gpus_a, cl);
  svc::CommStrategy strat_b = locality_aware_strategy(gpus_b, cl);

  std::vector<AssignItem> items() {
    AssignItem a{CommId{0}, AppId{1}, &gpus_a, &strat_a, false};
    AssignItem b{CommId{1}, AppId{2}, &gpus_b, &strat_b, false};
    return {a, b};
  }
};

TEST_F(TwoJobFixture, FfaAssignsEveryInterHostFlowARoute) {
  const auto routes = assign_flows(items(), cl, routing);
  // Each job: 1 channel x 4 positions, 4 inter-host edges (1 GPU per host).
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes.at(0).size(), 4u);
  EXPECT_EQ(routes.at(1).size(), 4u);
}

TEST_F(TwoJobFixture, FfaSpreadsCrossRackFlowsOverBothSpines) {
  const auto routes = assign_flows(items(), cl, routing);
  // The two jobs each have one rack0->rack1 ring edge and one rack1->rack0
  // edge. With 2 spine paths, FFA must not put both forward (or both
  // reverse) cross-rack flows of the two jobs on the same spine.
  // Collect the chosen route for each job's cross-rack edges.
  auto cross_routes = [&](const std::vector<GpuId>& gpus,
                          const svc::CommStrategy& s, CommId comm) {
    std::vector<std::uint32_t> out;
    const auto& order = s.channel_orders[0];
    const int n = static_cast<int>(gpus.size());
    for (int p = 0; p < n; ++p) {
      const GpuId a = gpus[static_cast<std::size_t>(order.rank_at(p))];
      const GpuId b = gpus[static_cast<std::size_t>(order.rank_at(p + 1))];
      if (cl.same_host(a, b) || cl.rack_of_gpu(a) == cl.rack_of_gpu(b)) continue;
      out.push_back(routes.at(comm.get())
                        .at(svc::CommStrategy::route_key(0, order.rank_at(p),
                                                         order.rank_at(p + 1)))
                        .get());
    }
    return out;
  };
  const auto a_routes = cross_routes(gpus_a, strat_a, CommId{0});
  const auto b_routes = cross_routes(gpus_b, strat_b, CommId{1});
  ASSERT_EQ(a_routes.size(), 2u);
  ASSERT_EQ(b_routes.size(), 2u);
  // Forward direction: A and B on different spines.
  EXPECT_NE(a_routes[0], b_routes[0]);
  EXPECT_NE(a_routes[1], b_routes[1]);
}

TEST_F(TwoJobFixture, PfaReservedRouteExcludesLowPriority) {
  auto it = items();
  it[0].high_priority = true;
  AssignOptions opt;
  opt.reserved_routes = {0};
  const auto routes = assign_flows(it, cl, routing, opt);
  // Low-priority job B must avoid route 0 on multi-path (cross-rack) hops.
  const auto& order = strat_b.channel_orders[0];
  for (int p = 0; p < 4; ++p) {
    const GpuId a = gpus_b[static_cast<std::size_t>(order.rank_at(p))];
    const GpuId b = gpus_b[static_cast<std::size_t>(order.rank_at(p + 1))];
    if (cl.same_host(a, b)) continue;
    const auto key = svc::CommStrategy::route_key(0, order.rank_at(p),
                                                  order.rank_at(p + 1));
    const auto r = routes.at(1).at(key);
    if (cl.rack_of_gpu(a) != cl.rack_of_gpu(b)) {
      EXPECT_NE(r.get(), 0u) << "low-priority flow on a reserved route";
    }
  }
}

TEST_F(TwoJobFixture, AssignmentIsDeterministic) {
  const auto r1 = assign_flows(items(), cl, routing);
  const auto r2 = assign_flows(items(), cl, routing);
  EXPECT_EQ(r1.at(0), r2.at(0));
  EXPECT_EQ(r1.at(1), r2.at(1));
}

TEST(FlowAssign, ScalesRoughlyLinearlyInJobSize) {
  auto cl = cluster::make_large_sim_cluster();
  net::Routing routing(cl.topology());
  auto run_for = [&](int ngpus) {
    std::vector<GpuId> gpus;
    for (int g = 0; g < ngpus; ++g) gpus.push_back(GpuId{static_cast<std::uint32_t>(g)});
    auto strat = locality_aware_strategy(gpus, cl);
    AssignItem item{CommId{0}, AppId{1}, &gpus, &strat, false};
    return measure_assign_seconds({item}, cl, routing);
  };
  run_for(32);  // warm the routing cache
  const double t32 = run_for(32);
  EXPECT_LT(t32, 0.05) << "32-GPU schedule took " << t32 << " s";
}

// --- traffic-pattern analysis ------------------------------------------------------

std::vector<svc::TraceRecord> synthetic_trace(double period, double busy,
                                              int iterations) {
  std::vector<svc::TraceRecord> out;
  for (int i = 0; i < iterations; ++i) {
    const double t0 = 1.0 + i * period;
    for (int k = 0; k < 4; ++k) {
      svc::TraceRecord r;
      r.app = AppId{1};
      r.comm = CommId{0};
      r.rank = 0;
      r.seq = static_cast<std::uint64_t>(i * 4 + k);
      r.issued = t0 + k * busy / 4;
      r.launched = r.issued;
      r.started = r.issued;
      r.completed = r.issued + busy / 4;
      out.push_back(r);
    }
  }
  return out;
}

TEST(TrafficAnalysis, RecoversPeriodAndBusyWindow) {
  const auto trace = synthetic_trace(0.2, 0.08, 10);
  const CommPattern p = analyze_comm_pattern(trace);
  ASSERT_TRUE(p.valid());
  EXPECT_NEAR(p.period, 0.2, 0.02);
  EXPECT_NEAR(p.busy_end - p.busy_begin, 0.08, 0.02);
}

TEST(TrafficAnalysis, TooShortTraceIsRejected) {
  const auto trace = synthetic_trace(0.2, 0.08, 1);
  EXPECT_FALSE(analyze_comm_pattern(trace).valid());
}

TEST(TrafficAnalysis, IdleWindowScheduleComplementsBusyWindow) {
  const auto trace = synthetic_trace(0.2, 0.08, 10);
  const CommPattern p = analyze_comm_pattern(trace);
  const svc::TrafficSchedule s = idle_window_schedule(p);
  ASSERT_FALSE(s.unrestricted());
  // Mid-busy is closed; mid-idle is open (relative to the phase anchor).
  EXPECT_FALSE(s.open_at(p.t0 + 0.02));
  EXPECT_TRUE(s.open_at(p.t0 + 0.15));
}

TEST(TrafficSchedule, OpenAtAndBoundariesAreConsistent) {
  svc::TrafficSchedule s;
  s.t0 = 0.0;
  s.period = 1.0;
  s.allowed.push_back({0.25, 0.75});
  EXPECT_FALSE(s.open_at(0.1));
  EXPECT_TRUE(s.open_at(0.5));
  EXPECT_FALSE(s.open_at(0.9));
  EXPECT_TRUE(s.open_at(1.5));  // periodic
  EXPECT_NEAR(s.next_open(0.1), 0.25, 1e-9);
  EXPECT_NEAR(s.next_open(0.8), 1.25, 1e-9);
  EXPECT_NEAR(s.next_boundary(0.5), 0.75, 1e-9);
}

}  // namespace
}  // namespace mccs::policy

namespace mccs::policy {
namespace {

TEST(FatTree, CrossPodPathsTraverseACore) {
  cluster::FatTreeSpec spec;
  auto cl = cluster::make_fat_tree(spec);
  net::Routing routing(cl.topology());
  // First host of pod 0 to first host of pod 1.
  const auto hosts = cl.host_count();
  ASSERT_EQ(hosts, 8u);  // 2 pods x 2 leaves x 2 hosts
  const NodeId src = cl.host(HostId{0}).nic_nodes[0];
  const NodeId dst = cl.host(HostId{4}).nic_nodes[0];
  const auto& paths = routing.paths(src, dst);
  // leaf -> pod spine (2) -> core (2) -> pod spine (2) -> leaf: 8 paths.
  EXPECT_EQ(paths.size(), 8u);
  for (const auto& p : paths) EXPECT_EQ(p.size(), 6u);
  // Same-pod cross-rack stays inside the pod: 2 paths of 4 hops.
  const NodeId dst_same_pod = cl.host(HostId{2}).nic_nodes[0];
  const auto& local = routing.paths(src, dst_same_pod);
  EXPECT_EQ(local.size(), 2u);
  for (const auto& p : local) EXPECT_EQ(p.size(), 4u);
}

TEST(FatTree, LocalityOrderGroupsPodsBeforeRacks) {
  cluster::FatTreeSpec spec;
  auto cl = cluster::make_fat_tree(spec);
  // One GPU on one host of every rack, listed in a pod-interleaved order.
  // Hosts: pod0 = {0,1 (rack0), 2,3 (rack1)}, pod1 = {4,5 (rack2), 6,7
  // (rack3)}; 4 GPUs per host.
  std::vector<GpuId> gpus{
      GpuId{0 * 4},   // pod0 rack0
      GpuId{2 * 4},   // pod0 rack1
      GpuId{4 * 4},   // pod1 rack2
      GpuId{6 * 4},   // pod1 rack3
  };
  std::vector<int> interleaved{0, 2, 1, 3};  // pod0, pod1, pod0, pod1
  const auto order = locality_aware_order(gpus, cl);
  // Count pod boundary crossings around the ring: optimal is exactly 2.
  auto pod_of = [&](int rank) {
    return cl.host(cl.host_of_gpu(gpus[static_cast<std::size_t>(rank)])).pod.get();
  };
  int optimal_crossings = 0;
  int interleaved_crossings = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (pod_of(order[i]) != pod_of(order[(i + 1) % order.size()])) {
      ++optimal_crossings;
    }
    if (pod_of(interleaved[i]) != pod_of(interleaved[(i + 1) % 4])) {
      ++interleaved_crossings;
    }
  }
  EXPECT_EQ(optimal_crossings, 2);
  EXPECT_EQ(interleaved_crossings, 4);
}

TEST(FatTree, CollectiveRunsAcrossPods) {
  // End-to-end sanity: an AllReduce spanning both pods of the fat-tree
  // completes and sums correctly through the service.
  cluster::FatTreeSpec spec;
  svc::Fabric fabric{cluster::make_fat_tree(spec)};
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{16}, GpuId{8}, GpuId{24}};
  const CommId comm = mccs::test::create_comm(fabric, app, gpus);
  auto ranks = mccs::test::make_ranks(fabric, app, gpus);
  const std::size_t count = 256;
  std::vector<gpu::DevicePtr> buf(4);
  std::vector<float> expected(count, 0.0f);
  for (int r = 0; r < 4; ++r) {
    buf[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    mccs::test::fill_pattern<float>(fabric, buf[static_cast<std::size_t>(r)], count, r);
    auto s = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
  }
  int remaining = 4;
  for (int r = 0; r < 4; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_reduce(comm, buf[static_cast<std::size_t>(r)],
                        buf[static_cast<std::size_t>(r)], count,
                        coll::DataType::kFloat32, coll::ReduceOp::kSum,
                        *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(mccs::test::await(fabric, remaining));
  for (int r = 0; r < 4; ++r) {
    auto out = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], expected[i]);
  }
}

}  // namespace
}  // namespace mccs::policy
