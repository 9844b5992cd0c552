// Failure-injection tests: the service must fail loudly — or degrade to a
// quiescent, recoverable state — under control-plane and tenant failures, and a
// failing tenant must never affect another tenant's traffic.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "policy/controller.h"
#include "workload/fault_plan.h"

namespace mccs {
namespace {

using coll::DataType;
using coll::ReduceOp;
using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

struct FailureFixture : ::testing::Test {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  CommId comm;
  std::vector<test::RankCtx> ranks;
  std::vector<gpu::DevicePtr> buf;
  std::size_t count = 512;

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

  void issue_round(int& remaining) {
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                                ReduceOp::kSum, *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
  }
};

TEST_F(FailureFixture, PartialReconfigDeliveryQuiescesAndLateDeliveryRecovers) {
  // The controller crashes after delivering the command to 3 of 4 ranks:
  // those ranks contribute to the barrier and hold new launches; the system
  // quiesces (no corruption, no spin). Re-delivering to the last rank later
  // (the restarted controller) completes the barrier and everything held
  // drains correctly.
  svc::CommStrategy rev = fabric.strategy_of(comm);
  for (auto& o : rev.channel_orders) o = o.reversed();

  int r1 = 4;
  issue_round(r1);
  // Inject: rank 3's command delayed "forever" (far beyond the test window).
  fabric.reconfigure(comm, rev, {0.0, 0.0, 0.0, seconds(10.0)});
  int r2 = 4;
  issue_round(r2);

  // With the command racing the issues, the ranks that saw it hold every
  // launch until the barrier completes — which needs rank 3's contribution.
  // The system quiesces: nothing completes, nothing corrupts, no spinning.
  fabric.loop().run_until(seconds(1.0));
  EXPECT_GT(r1 + r2, 0) << "collectives completed before the barrier";
  for (GpuId g : gpus) {
    if (g == gpus[3]) continue;
    EXPECT_TRUE(fabric.proxy_for(g).reconfig_in_progress(comm));
  }

  // Late delivery at t=10 s (the restarted controller) recovers everything.
  ASSERT_TRUE(fabric.loop().run_while_pending(
      [&] { return r1 == 0 && r2 == 0; }));
  fabric.loop().run();
  for (GpuId g : gpus) {
    EXPECT_FALSE(fabric.proxy_for(g).reconfig_in_progress(comm));
    EXPECT_TRUE(fabric.proxy_for(g).strategy(comm) == rev);
  }
  // Sums: two rounds of x4.
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], 16.0f);
  }
}

TEST_F(FailureFixture, StalledTenantDoesNotAffectOtherTenants) {
  // Tenant A wedges itself (rank 0 never issues); tenant B shares the same
  // hosts and links and must be completely unaffected.
  int a_remaining = 3;
  for (std::size_t r = 1; r < gpus.size(); ++r) {  // rank 0 missing!
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&a_remaining](Time) { --a_remaining; });
  }

  const AppId app_b{2};
  const std::vector<GpuId> gpus_b{GpuId{1}, GpuId{3}, GpuId{5}, GpuId{7}};
  const CommId comm_b = create_comm(fabric, app_b, gpus_b);
  auto ranks_b = make_ranks(fabric, app_b, gpus_b);
  std::vector<gpu::DevicePtr> buf_b(4);
  std::vector<float> expected(count, 0.0f);
  for (std::size_t r = 0; r < 4; ++r) {
    buf_b[r] = ranks_b[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf_b[r], count, static_cast<int>(r));
    auto s = fabric.gpus().typed<float>(buf_b[r], count);
    for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
  }
  int b_remaining = 4;
  for (std::size_t r = 0; r < 4; ++r) {
    ranks_b[r].shim->all_reduce(comm_b, buf_b[r], buf_b[r], count,
                                DataType::kFloat32, ReduceOp::kSum,
                                *ranks_b[r].stream,
                                [&b_remaining](Time) { --b_remaining; });
  }
  ASSERT_TRUE(fabric.loop().run_while_pending([&] { return b_remaining == 0; }));
  EXPECT_EQ(a_remaining, 3);  // A is still wedged...
  for (std::size_t r = 0; r < 4; ++r) {
    auto out = fabric.gpus().typed<float>(buf_b[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], expected[i]);
  }
}

TEST_F(FailureFixture, TenantFreeingBufferMidCollectiveFailsLoudly) {
  // A buggy tenant frees a buffer while its collective is still in flight:
  // the service must detect the dangling access, not silently corrupt.
  int remaining = 4;
  issue_round(remaining);
  ranks[0].shim->free(buf[0]);
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(FailureFixture, ReconfigDuringDrainToleratesSlowRanks) {
  // One rank's app thread is descheduled (its issues arrive very late);
  // reconfigurations interleaved with its catch-up still preserve sums.
  int r1 = 3;
  for (std::size_t r = 0; r < 3; ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&r1](Time) { --r1; });
  }
  svc::CommStrategy rev = fabric.strategy_of(comm);
  for (auto& o : rev.channel_orders) o = o.reversed();
  fabric.reconfigure(comm, rev);
  // Rank 3 wakes up 5 ms later and issues its half of the collective.
  int r1_last = 1;
  fabric.loop().schedule_at(millis(5), [&] {
    ranks[3].shim->all_reduce(comm, buf[3], buf[3], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[3].stream,
                              [&r1_last](Time) { --r1_last; });
  });
  ASSERT_TRUE(fabric.loop().run_while_pending(
      [&] { return r1 == 0 && r1_last == 0; }));
  fabric.loop().run();
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], 4.0f);
  }
  for (GpuId g : gpus) {
    EXPECT_TRUE(fabric.proxy_for(g).strategy(comm) == rev);
  }
}

// --- link failure, detection, and recovery ----------------------------------------

/// Fabric options with transport stall detection on. Tests opt in; the
/// default config keeps detection off so healthy-path results stay
/// byte-identical.
svc::Fabric::Options detection_options() {
  svc::Fabric::Options opt;
  opt.config.chunk_deadline_slack = 4.0;
  opt.config.chunk_deadline_floor = micros(100);
  return opt;
}

/// First leaf->spine link of the testbed fabric (rack 0's first uplink):
/// cross-rack traffic ECMP-hashes over it or its sibling, so killing it
/// leaves path diversity for re-hash recovery.
LinkId first_fabric_uplink(const cluster::Cluster& cl) {
  const net::Topology& topo = cl.topology();
  const NodeId nic0 = cl.host(HostId{0}).nic_nodes[0];
  const NodeId leaf = topo.link(topo.out_links(nic0).front()).dst;
  for (LinkId l : topo.out_links(leaf)) {
    if (topo.node(topo.link(l).dst).kind == net::NodeKind::kSpineSwitch) {
      return l;
    }
  }
  return LinkId{};
}

std::uint64_t total_retries(svc::Fabric& fabric) {
  return fabric.telemetry().metrics().counter_total("transport_retries");
}

std::uint64_t total_escalations(svc::Fabric& fabric) {
  return fabric.telemetry().metrics().counter_total("transport_escalations");
}

TEST(FaultRecovery, MidCollectiveLinkDownRecoversViaEcmpRehash) {
  // A fabric link dies while an AllReduce is mid-flight. No controller is
  // attached: the transport's own deadline + ECMP re-hash ladder must move
  // the stalled chunks to the surviving spine and complete bit-correctly.
  Fabric fabric{cluster::make_testbed(), detection_options()};
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 1u << 20;  // 4 MiB: keeps transfers in flight
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    auto s = fabric.gpus().typed<float>(buf[r], count);
    for (auto& x : s) x = 1.0f;
  }
  int remaining = 4;
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }

  const LinkId victim = first_fabric_uplink(fabric.cluster());
  ASSERT_TRUE(victim.valid());
  workload::FaultPlan plan;
  plan.link_down(micros(300), victim);  // never restored
  plan.schedule(fabric);

  ASSERT_TRUE(await(fabric, remaining));
  EXPECT_GT(total_retries(fabric), 0u);
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], 4.0f);
  }
}

TEST(FaultRecovery, HardLinkDownEscalatesAndControllerReconfigures) {
  // With retries exhausted immediately (max_retries = 0), the transport
  // escalates to the controller, which confirms the dead link against the
  // network state, reconfigures the communicator's explicit routes around
  // it (Fig.-4 barrier), and the workload keeps completing bit-correctly.
  svc::Fabric::Options opt = detection_options();
  opt.config.transport_max_retries = 0;
  Fabric fabric{cluster::make_testbed(), opt};
  policy::Controller controller(fabric);
  controller.attach();  // FFA explicit routes
  controller.enable_fault_recovery();

  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 1u << 20;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    auto s = fabric.gpus().typed<float>(buf[r], count);
    for (auto& x : s) x = 1.0f;
  }
  auto issue_round = [&](int& rem) {
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                                ReduceOp::kSum, *ranks[r].stream,
                                [&rem](Time) { --rem; });
    }
  };

  int r1 = 4;
  issue_round(r1);
  // Mid-flight, kill the fabric link carrying the most traffic — guaranteed
  // to be on an assigned route.
  fabric.loop().run_until(fabric.loop().now() + micros(300));
  const net::Topology& topo = fabric.cluster().topology();
  LinkId victim{};
  double hottest = 0.0;
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const LinkId id{static_cast<std::uint32_t>(l)};
    if (topo.node(topo.link(id).src).kind != net::NodeKind::kLeafSwitch) continue;
    if (topo.node(topo.link(id).dst).kind != net::NodeKind::kSpineSwitch) continue;
    const double tp = fabric.network().link_throughput(id);
    if (tp > hottest) {
      hottest = tp;
      victim = id;
    }
  }
  ASSERT_TRUE(victim.valid());
  fabric.network().set_link_state(victim, net::LinkState::kDown);  // permanent

  // The in-flight round drains (retries re-hash around the dead spine), the
  // escalation fires, and the controller reconfigures.
  ASSERT_TRUE(await(fabric, r1));
  EXPECT_GT(total_escalations(fabric), 0u);
  ASSERT_GE(controller.recovery_log().size(), 1u);
  EXPECT_EQ(controller.recovery_log().front().link, victim);
  EXPECT_GE(controller.recovery_log().front().comms_reconfigured, 1);
  const auto failed = controller.failed_links();
  EXPECT_TRUE(std::find(failed.begin(), failed.end(), victim) != failed.end());

  // Steady state after recovery: further rounds complete without operator
  // input, bit-correctly, over the surviving capacity.
  for (int iter = 1; iter <= 3; ++iter) {
    int rem = 4;
    issue_round(rem);
    ASSERT_TRUE(await(fabric, rem)) << "iteration " << iter << " hung";
  }
  fabric.loop().run();
  const float expected = 256.0f;  // 4 rounds of x4
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], expected);
  }
  // The re-assigned routes avoid the dead link entirely.
  int r2 = 4;
  issue_round(r2);
  fabric.loop().run_until(fabric.loop().now() + micros(300));
  EXPECT_EQ(fabric.network().link_throughput(victim), 0.0);
  ASSERT_TRUE(await(fabric, r2));
}

TEST(FaultRecovery, TenantKillDuringBarrierDrainsAndOthersComplete) {
  // Tenant A wedges mid-reconfiguration (one rank's command delayed forever),
  // then gets killed. The kill must tear down everything A owned — the loop
  // drains, nothing throws — while tenant B completes bit-correctly.
  Fabric fabric{cluster::make_testbed()};
  const AppId app_a{1}, app_b{2};
  const std::vector<GpuId> gpus_a{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const std::vector<GpuId> gpus_b{GpuId{1}, GpuId{3}, GpuId{5}, GpuId{7}};
  const CommId comm_a = create_comm(fabric, app_a, gpus_a);
  const CommId comm_b = create_comm(fabric, app_b, gpus_b);
  auto ranks_a = make_ranks(fabric, app_a, gpus_a);
  auto ranks_b = make_ranks(fabric, app_b, gpus_b);
  const std::size_t count = 512;
  std::vector<gpu::DevicePtr> buf_a(4), buf_b(4);
  for (std::size_t r = 0; r < 4; ++r) {
    buf_a[r] = ranks_a[r].shim->alloc(count * sizeof(float));
    buf_b[r] = ranks_b[r].shim->alloc(count * sizeof(float));
    for (auto& x : fabric.gpus().typed<float>(buf_a[r], count)) x = 1.0f;
    for (auto& x : fabric.gpus().typed<float>(buf_b[r], count)) x = 1.0f;
  }

  // A: stuck barrier (rank 3's command delayed beyond the kill), plus a
  // round of collectives held behind it on 3 of 4 ranks.
  svc::CommStrategy rev = fabric.strategy_of(comm_a);
  for (auto& o : rev.channel_orders) o = o.reversed();
  fabric.reconfigure(comm_a, rev, {0.0, 0.0, 0.0, seconds(100.0)});
  int a_remaining = 4;
  for (std::size_t r = 0; r < 4; ++r) {
    ranks_a[r].shim->all_reduce(comm_a, buf_a[r], buf_a[r], count,
                                DataType::kFloat32, ReduceOp::kSum,
                                *ranks_a[r].stream,
                                [&a_remaining](Time) { --a_remaining; });
  }
  int b_remaining = 4;
  for (std::size_t r = 0; r < 4; ++r) {
    ranks_b[r].shim->all_reduce(comm_b, buf_b[r], buf_b[r], count,
                                DataType::kFloat32, ReduceOp::kSum,
                                *ranks_b[r].stream,
                                [&b_remaining](Time) { --b_remaining; });
  }

  svc::KillReport report;
  fabric.loop().schedule_after(millis(1),
                               [&] { report = fabric.kill_app(app_a); });

  // The whole system drains: B completes, A's leftovers are gone, and the
  // delayed reconfigure command lands on a tombstone without throwing.
  ASSERT_TRUE(fabric.loop().run_while_pending([&] { return b_remaining == 0; }));
  EXPECT_NO_THROW(fabric.loop().run());
  EXPECT_EQ(report.comms, 1u);
  EXPECT_GT(report.collectives, 0u);
  EXPECT_GT(a_remaining, 0);  // the wedged round never completed...
  for (std::size_t r = 0; r < 4; ++r) {  // ...and B is untouched
    auto out = fabric.gpus().typed<float>(buf_b[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], 4.0f);
  }
  EXPECT_TRUE(fabric.list_communicators().size() == 1 &&
              fabric.list_communicators().front()->id == comm_b);
}

TEST(FaultRecovery, KillDropsTheAppsRendezvous) {
  // A kill also reaches a communicator not installed yet: a rendezvous that
  // every rank joined, whose install is bootstrap_latency away, and one still
  // waiting for a rank, which a join landing after the kill must not
  // complete. Neither installs anything or fires on_ready, and another
  // tenant's communicator, created afterwards, sums exactly.
  for (const bool all_joined : {true, false}) {
    SCOPED_TRACE(all_joined ? "both ranks joined" : "one rank joined");
    Fabric fabric{cluster::make_testbed()};
    const AppId app{1};
    const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
    std::vector<std::size_t> streams;
    for (GpuId g : gpus) streams.push_back(fabric.gpus().gpu(g).stream_count());
    const svc::UniqueId uid = fabric.new_unique_id();
    int ready = 0;
    const auto join = [&](int rank) {
      fabric.connect(app, gpus[static_cast<std::size_t>(rank)])
          .comm_init_rank(uid, 2, rank, [&ready](CommId) { ++ready; });
    };
    join(0);
    if (all_joined) join(1);
    fabric.loop().run_until(fabric.loop().now() + micros(100));
    fabric.kill_app(app);
    if (!all_joined) join(1);
    fabric.loop().run();
    EXPECT_EQ(ready, 0);
    EXPECT_TRUE(fabric.list_communicators().empty());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      EXPECT_FALSE(fabric.proxy_for(gpus[r]).has_communicator(CommId{0}));
      EXPECT_EQ(fabric.gpus().gpu(gpus[r]).stream_count(), streams[r]);
    }

    const AppId other{2};
    const std::vector<GpuId> other_gpus{GpuId{1}, GpuId{3}};
    const CommId comm = create_comm(fabric, other, other_gpus);
    auto ranks = make_ranks(fabric, other, other_gpus);
    const std::size_t count = 512;
    std::vector<gpu::DevicePtr> buf(other_gpus.size());
    int remaining = static_cast<int>(other_gpus.size());
    for (std::size_t r = 0; r < other_gpus.size(); ++r) {
      buf[r] = ranks[r].shim->alloc(count * sizeof(float));
      for (auto& x : fabric.gpus().typed<float>(buf[r], count)) {
        x = static_cast<float>(r + 1);
      }
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                                ReduceOp::kSum, *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
    ASSERT_TRUE(await(fabric, remaining));
    for (std::size_t r = 0; r < other_gpus.size(); ++r) {
      for (const float x : fabric.gpus().typed<float>(buf[r], count)) {
        ASSERT_EQ(x, 3.0f);
      }
    }
  }
}

TEST(FaultRecovery, FaultedTenantLeavesIntraHostTenantTimingUntouched) {
  // Victim isolation, measured end to end: tenant B is intra-host (GPUs 2,3
  // on host 1 — shared-memory channel only, zero link sharing with anyone).
  // Tenant A spans racks and suffers a NIC-uplink outage mid-run. B's
  // per-iteration completion times must be EXACTLY the same as in a
  // fault-free control run — detection and retries may cost A, never B.
  auto run_b_times = [&](bool with_fault) {
    Fabric fabric{cluster::make_testbed(), detection_options()};
    const AppId app_a{1}, app_b{2};
    const std::vector<GpuId> gpus_a{GpuId{0}, GpuId{4}};  // cross-rack
    const std::vector<GpuId> gpus_b{GpuId{2}, GpuId{3}};  // host 1 only
    const CommId comm_a = create_comm(fabric, app_a, gpus_a);
    const CommId comm_b = create_comm(fabric, app_b, gpus_b);
    auto ranks_a = make_ranks(fabric, app_a, gpus_a);
    auto ranks_b = make_ranks(fabric, app_b, gpus_b);
    const std::size_t count = 1u << 16;
    std::vector<gpu::DevicePtr> buf_a(2), buf_b(2);
    for (std::size_t r = 0; r < 2; ++r) {
      buf_a[r] = ranks_a[r].shim->alloc(count * sizeof(float));
      buf_b[r] = ranks_b[r].shim->alloc(count * sizeof(float));
      for (auto& x : fabric.gpus().typed<float>(buf_a[r], count)) x = 1.0f;
      for (auto& x : fabric.gpus().typed<float>(buf_b[r], count)) x = 1.0f;
    }
    if (with_fault) {
      // Host 0's NIC-0 uplink: A's only egress for GPU 0 (no path
      // diversity), so A stalls hard until the restore.
      const net::Topology& topo = fabric.cluster().topology();
      const NodeId nic0 = fabric.cluster().host(HostId{0}).nic_nodes[0];
      const LinkId uplink = topo.out_links(nic0).front();
      workload::FaultPlan plan;
      plan.link_down(micros(100), uplink).link_restore(millis(5), uplink);
      plan.schedule(fabric);
    }

    int chains_left = 2;
    std::vector<Time> b_times;
    int a_rounds = 3, a_pending = 0;
    int b_rounds = 5, b_pending = 0;
    std::function<void()> issue_a = [&] {
      a_pending = 2;
      for (std::size_t r = 0; r < 2; ++r) {
        ranks_a[r].shim->all_reduce(comm_a, buf_a[r], buf_a[r], count,
                                    DataType::kFloat32, ReduceOp::kSum,
                                    *ranks_a[r].stream, [&](Time) {
                                      if (--a_pending == 0) {
                                        if (--a_rounds > 0) {
                                          issue_a();
                                        } else {
                                          --chains_left;
                                        }
                                      }
                                    });
      }
    };
    std::function<void()> issue_b = [&] {
      b_pending = 2;
      for (std::size_t r = 0; r < 2; ++r) {
        ranks_b[r].shim->all_reduce(comm_b, buf_b[r], buf_b[r], count,
                                    DataType::kFloat32, ReduceOp::kSum,
                                    *ranks_b[r].stream, [&](Time at) {
                                      if (--b_pending == 0) {
                                        b_times.push_back(at);
                                        if (--b_rounds > 0) {
                                          issue_b();
                                        } else {
                                          --chains_left;
                                        }
                                      }
                                    });
      }
    };
    issue_a();
    issue_b();
    EXPECT_TRUE(await(fabric, chains_left));
    return b_times;
  };

  const std::vector<Time> control = run_b_times(false);
  const std::vector<Time> faulted = run_b_times(true);
  ASSERT_EQ(control.size(), 5u);
  ASSERT_EQ(faulted.size(), 5u);
  for (std::size_t i = 0; i < control.size(); ++i) {
    EXPECT_EQ(control[i], faulted[i]) << "iteration " << i;  // exact, not near
  }
}

}  // namespace
}  // namespace mccs
