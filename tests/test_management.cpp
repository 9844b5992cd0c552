// Tests of the provider management surface: trace export, communicator
// snapshots, strategy helpers and channel-order properties.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "mccs/trace_export.h"

namespace mccs {
namespace {

using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

TEST(TraceExport, RecordRoundTripsItsFields) {
  svc::TraceRecord r;
  r.app = AppId{7};
  r.comm = CommId{3};
  r.rank = 2;
  r.seq = 41;
  r.kind = coll::CollectiveKind::kAllGather;
  r.bytes = 1024;
  r.issued = 1.5;
  r.launched = 1.6;
  r.started = 1.7;
  r.completed = 2.0;
  const std::string json = svc::trace_record_to_json(r);
  EXPECT_NE(json.find("\"app\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"AllGather\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":41"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1024"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceExport, JsonLinesHasOneLinePerRecord) {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  std::vector<gpu::DevicePtr> buf(2);
  int remaining = 4;
  for (int r = 0; r < 2; ++r) buf[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(256);
  for (int round = 0; round < 2; ++round) {
    for (int r = 0; r < 2; ++r) {
      ranks[static_cast<std::size_t>(r)].shim->all_reduce(
          comm, buf[static_cast<std::size_t>(r)], buf[static_cast<std::size_t>(r)], 64,
          coll::DataType::kFloat32, coll::ReduceOp::kSum,
          *ranks[static_cast<std::size_t>(r)].stream, [&remaining](Time) { --remaining; });
    }
  }
  ASSERT_TRUE(await(fabric, remaining));
  const std::string lines = svc::trace_to_json_lines(fabric.trace(app));
  EXPECT_EQ(static_cast<int>(std::count(lines.begin(), lines.end(), '\n')), 4);
}

// --- channel-order properties -------------------------------------------------

TEST(ChannelOrders, EveryChannelIsAPermutation) {
  auto cl = cluster::make_testbed();
  std::vector<GpuId> gpus{GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3},
                          GpuId{4}, GpuId{5}, GpuId{6}, GpuId{7}};
  std::vector<int> base{0, 1, 2, 3, 4, 5, 6, 7};
  const auto orders = svc::make_channel_orders(base, gpus, cl, 4);
  ASSERT_EQ(orders.size(), 4u);
  for (const auto& o : orders) {
    std::set<int> seen(o.order().begin(), o.order().end());
    EXPECT_EQ(seen.size(), 8u);  // RingOrder validates; double-check anyway
  }
}

TEST(ChannelOrders, ChannelsExitHostsThroughDistinctGpus) {
  auto cl = cluster::make_testbed();
  std::vector<GpuId> gpus{GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3},
                          GpuId{4}, GpuId{5}, GpuId{6}, GpuId{7}};
  std::vector<int> base{0, 1, 2, 3, 4, 5, 6, 7};
  const auto orders = svc::make_channel_orders(base, gpus, cl, 2);
  // For each host, the rank whose successor is off-host (the NIC egress)
  // must differ between the two channels.
  for (int host_first_rank : {0, 2, 4, 6}) {
    std::set<int> egress;
    for (const auto& o : orders) {
      for (int p = 0; p < 8; ++p) {
        const int r = o.rank_at(p);
        if (r != host_first_rank && r != host_first_rank + 1) continue;
        const int next = o.rank_at(o.position_of(r) + 1);
        const bool next_same_host =
            cl.same_host(gpus[static_cast<std::size_t>(r)],
                         gpus[static_cast<std::size_t>(next)]);
        if (!next_same_host) egress.insert(r);
      }
    }
    EXPECT_EQ(egress.size(), 2u) << "host of rank " << host_first_rank;
  }
}

TEST(ChannelOrders, HostRunsStayContiguous) {
  auto cl = cluster::make_testbed();
  std::vector<GpuId> gpus{GpuId{0}, GpuId{1}, GpuId{4}, GpuId{5}};
  std::vector<int> base{0, 1, 2, 3};
  const auto orders = svc::make_channel_orders(base, gpus, cl, 2);
  for (const auto& o : orders) {
    int transitions = 0;
    for (int p = 0; p < 4; ++p) {
      if (!cl.same_host(gpus[static_cast<std::size_t>(o.rank_at(p))],
                        gpus[static_cast<std::size_t>(o.rank_at(p + 1))])) {
        ++transitions;
      }
    }
    EXPECT_EQ(transitions, 2);  // exactly one entry and one exit per host
  }
}

TEST(RouteKey, PacksChannelAndRanksWithoutCollision) {
  std::set<std::uint64_t> keys;
  for (int c : {0, 1, 7}) {
    for (int s = 0; s < 16; ++s) {
      for (int d = 0; d < 16; ++d) {
        if (s == d) continue;
        keys.insert(svc::CommStrategy::route_key(c, s, d));
      }
    }
  }
  EXPECT_EQ(keys.size(), 3u * 16 * 15);
}

}  // namespace
}  // namespace mccs

namespace mccs {
namespace {

/// The message of the ContractViolation `fn` throws, or "" if it returns.
std::string violation_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return {};
}

TEST(CommLifecycle, FabricDestroyRemovesEverywhere) {
  // Through either entry, the provider's destroy or every rank's own, the
  // communicator leaves the registry and every proxy, and the management
  // reads that walk the registry keep working.
  for (const bool every_rank : {false, true}) {
    SCOPED_TRACE(every_rank ? "every rank" : "provider");
    svc::Fabric fabric{cluster::make_testbed()};
    const AppId app{1};
    const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
    const CommId comm = test::create_comm(fabric, app, gpus);
    EXPECT_EQ(fabric.list_communicators().size(), 1u);
    if (every_rank) {
      for (GpuId g : gpus) fabric.connect(app, g).comm_destroy(comm);
    } else {
      fabric.destroy_communicator(comm);
    }
    fabric.loop().run();
    EXPECT_TRUE(fabric.list_communicators().empty());
    for (GpuId g : gpus) {
      EXPECT_FALSE(fabric.proxy_for(g).has_communicator(comm));
    }
    EXPECT_EQ(violation_of([&fabric] { (void)fabric.telemetry_snapshot(); }),
              "");
  }
}

TEST(CommLifecycle, TenantAndProviderDestroyRacingTearDownEachRankOnce) {
  // A tenant's comm_destroy on GPU 0 and the provider's destroy_communicator
  // both reach GPU 0's rank. Whichever teardown lands second skips the rank
  // the first removed, so the loop runs on for every tenant. Called at one
  // instant, in either order, the tenant's lands first; called 10 us after
  // the provider's, it lands second.
  struct Race {
    const char* name;
    bool tenant_first;
    Time tenant_delay;
  };
  for (const Race race : {Race{"tenant, provider", true, 0.0},
                          Race{"provider, tenant", false, 0.0},
                          Race{"provider, tenant 10 us later", false,
                               micros(10)}}) {
    SCOPED_TRACE(race.name);
    svc::Fabric fabric{cluster::make_testbed()};
    const AppId app{1};
    const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
    std::vector<std::size_t> streams;
    for (GpuId g : gpus) streams.push_back(fabric.gpus().gpu(g).stream_count());
    const CommId comm = test::create_comm(fabric, app, gpus);
    svc::Shim& tenant = fabric.connect(app, gpus[0]);
    if (race.tenant_first) tenant.comm_destroy(comm);
    fabric.destroy_communicator(comm);
    if (!race.tenant_first) {
      fabric.loop().run_until(fabric.loop().now() + race.tenant_delay);
      tenant.comm_destroy(comm);
    }
    EXPECT_EQ(violation_of([&fabric] { fabric.loop().run(); }), "");
    EXPECT_TRUE(fabric.list_communicators().empty());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      EXPECT_FALSE(fabric.proxy_for(gpus[r]).has_communicator(comm));
      EXPECT_EQ(fabric.gpus().gpu(gpus[r]).stream_count(), streams[r]);
    }
  }
}

TEST(CommLifecycle, DestroyThenCreateReusesCleanState) {
  svc::Fabric fabric{cluster::make_testbed()};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId first = test::create_comm(fabric, AppId{1}, gpus);
  fabric.destroy_communicator(first);
  fabric.loop().run();
  const CommId second = test::create_comm(fabric, AppId{1}, gpus);
  EXPECT_NE(first.get(), second.get());
  // The new communicator works end to end.
  auto ranks = test::make_ranks(fabric, AppId{1}, gpus);
  std::vector<gpu::DevicePtr> buf(2);
  int remaining = 2;
  for (int r = 0; r < 2; ++r) {
    buf[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(64);
    ranks[static_cast<std::size_t>(r)].shim->all_reduce(
        second, buf[static_cast<std::size_t>(r)], buf[static_cast<std::size_t>(r)], 16,
        coll::DataType::kFloat32, coll::ReduceOp::kSum,
        *ranks[static_cast<std::size_t>(r)].stream, [&remaining](Time) { --remaining; });
  }
  EXPECT_TRUE(test::await(fabric, remaining));
}

TEST(CommLifecycle, DestroyWithInFlightCollectiveFailsLoudly) {
  // Destroyed at once, the communicator is gone before the collective
  // reaches the proxy, which rejects it as unknown. Destroyed once the
  // collective is active, the proxy's outstanding-collectives check fires.
  for (const bool after_launch : {false, true}) {
    SCOPED_TRACE(after_launch ? "after launch" : "before launch");
    svc::Fabric fabric{cluster::make_testbed()};
    const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
    const CommId comm = test::create_comm(fabric, AppId{1}, gpus);
    auto ranks = test::make_ranks(fabric, AppId{1}, gpus);
    gpu::DevicePtr buf = ranks[0].shim->alloc(1024);
    // Only rank 0 calls it, so the collective stays outstanding forever.
    ranks[0].shim->all_reduce(comm, buf, buf, 256, coll::DataType::kFloat32,
                              coll::ReduceOp::kSum, *ranks[0].stream);
    if (after_launch) {
      const svc::ProxyEngine& proxy = fabric.proxy_for(gpus[0]);
      ASSERT_TRUE(test::await_until(
          fabric, [&] { return proxy.active_count(comm) == 1; }));
    }
    fabric.destroy_communicator(comm);
    const std::string what = violation_of([&fabric] { fabric.loop().run(); });
    EXPECT_NE(what, "");
    if (after_launch) {
      EXPECT_NE(what.find("destroying a communicator with outstanding "
                          "collectives"),
                std::string::npos)
          << what;
    }
  }
}

TEST(CommLifecycle, DestroyDuringReconfigurationDropsLateProtocolMessages) {
  // An orderly destroy racing each phase of a reconfiguration: barrier
  // values still in flight, one rank's command not yet delivered, and the
  // connection update under way. The late protocol messages are dropped, the
  // loop drains without throwing, and another tenant's AllReduce, running
  // alongside, completes bit-correct.
  struct Race {
    Time destroy_after;
    Time last_rank_delay;
  };
  for (const Race race : {Race{0.0, 0.0}, Race{0.0, millis(1)},
                          Race{micros(200), 0.0}}) {
    svc::Fabric fabric{cluster::make_testbed()};
    const AppId app_a{1}, app_b{2};
    const std::vector<GpuId> gpus_a{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
    const std::vector<GpuId> gpus_b{GpuId{1}, GpuId{3}, GpuId{5}, GpuId{7}};
    const CommId comm_a = test::create_comm(fabric, app_a, gpus_a);
    const CommId comm_b = test::create_comm(fabric, app_b, gpus_b);
    auto ranks_b = test::make_ranks(fabric, app_b, gpus_b);
    const std::size_t count = 512;
    std::vector<gpu::DevicePtr> buf_b(4);
    int b_remaining = 4;
    for (std::size_t r = 0; r < 4; ++r) {
      buf_b[r] = ranks_b[r].shim->alloc(count * sizeof(float));
      for (auto& x : fabric.gpus().typed<float>(buf_b[r], count)) x = 1.0f;
      ranks_b[r].shim->all_reduce(comm_b, buf_b[r], buf_b[r], count,
                                  coll::DataType::kFloat32,
                                  coll::ReduceOp::kSum, *ranks_b[r].stream,
                                  [&b_remaining](Time) { --b_remaining; });
    }

    svc::CommStrategy rev = fabric.strategy_of(comm_a);
    for (auto& o : rev.channel_orders) o = o.reversed();
    fabric.reconfigure(comm_a, rev, {0.0, 0.0, 0.0, race.last_rank_delay});
    fabric.loop().schedule_after(race.destroy_after, [&fabric, comm_a] {
      fabric.destroy_communicator(comm_a);
    });

    EXPECT_NO_THROW(fabric.loop().run())
        << "destroy after " << race.destroy_after << " s";
    EXPECT_EQ(b_remaining, 0);
    for (std::size_t r = 0; r < 4; ++r) {
      for (const float x : fabric.gpus().typed<float>(buf_b[r], count)) {
        ASSERT_EQ(x, 4.0f);
      }
    }
    ASSERT_EQ(fabric.list_communicators().size(), 1u);
    EXPECT_EQ(fabric.list_communicators().front().id, comm_b);
  }
}

TEST(CommLifecycle, ReconfigurationAllocationsDoNotScaleWithRoutes) {
  // A decision's strategy is one object every rank shares, so what a
  // reconfiguration allocates must not grow with the route table it carries.
  // The extra routes are keyed on a channel the schedule never uses, so they
  // change nothing else.
  const auto reconfigure_allocations = [](int extra_routes) {
    svc::Fabric fabric{cluster::make_testbed()};
    const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
    const CommId comm = test::create_comm(fabric, AppId{1}, gpus);
    svc::CommStrategy strategy = fabric.strategy_of(comm);
    const int unused_channel = strategy.num_channels();
    for (int k = 0; k < extra_routes; ++k) {
      strategy.routes[svc::CommStrategy::route_key(unused_channel, k, k + 1)] =
          RouteId{0};
    }
    fabric.reconfigure(comm, std::move(strategy));  // warm-up
    fabric.loop().run();

    svc::CommStrategy again = fabric.strategy_of(comm);
    test::AllocationCounter allocs;
    fabric.reconfigure(comm, std::move(again));
    fabric.loop().run();
    return allocs.count();
  };
  EXPECT_EQ(reconfigure_allocations(16), reconfigure_allocations(32));
}

TEST(CommLifecycle, WarmTeardownAllocatesNothing) {
  // A teardown frees a communicator's state and records nothing per rank,
  // on the tenant's path (every rank's comm_destroy) and on the provider's
  // (destroy_communicator). One create, AllReduce and destroy cycle first
  // grows the event loop and the tables to their steady sizes.
  svc::Fabric fabric{cluster::make_testbed()};
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 256;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
  }
  const auto create_and_all_reduce = [&] {
    const CommId comm = test::create_comm(fabric, app, gpus);
    int remaining = static_cast<int>(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
    EXPECT_TRUE(test::await(fabric, remaining));
    fabric.loop().run();
    return comm;
  };
  const auto destroy_every_rank = [&](CommId comm) {
    for (const test::RankCtx& rank : ranks) rank.shim->comm_destroy(comm);
    fabric.loop().run();
  };
  destroy_every_rank(create_and_all_reduce());  // warm-up

  [[maybe_unused]] std::uint64_t tenant = 0;
  [[maybe_unused]] std::uint64_t provider = 0;
  CommId comm = create_and_all_reduce();
  {
    test::AllocationCounter allocs;
    destroy_every_rank(comm);
    tenant = allocs.count();
  }
  comm = create_and_all_reduce();
  {
    test::AllocationCounter allocs;
    fabric.destroy_communicator(comm);
    fabric.loop().run();
    provider = allocs.count();
  }
  EXPECT_TRUE(fabric.list_communicators().empty());
#if !defined(MCCS_UNDER_SANITIZER)
  EXPECT_EQ(tenant, 0u) << "the tenant's teardown allocated";
  EXPECT_EQ(provider, 0u) << "the provider's teardown allocated";
#endif
}

}  // namespace
}  // namespace mccs
