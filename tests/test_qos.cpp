// End-to-end QoS tests: traffic-window gating at the transport engines and
// the controller-driven PFA / TS policies over the management API.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "policy/controller.h"
#include "workload/models.h"
#include "workload/traffic_gen.h"

namespace mccs {
namespace {

using svc::Fabric;
using svc::TrafficSchedule;
using test::await;
using test::create_comm;
using test::make_ranks;

TEST(TrafficGating, BlockedAppMakesNoProgressUntilWindowOpens) {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};  // cross-rack
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 1u << 20;
  std::vector<gpu::DevicePtr> buf(2);
  for (int r = 0; r < 2; ++r) buf[r] = ranks[r].shim->alloc(count * sizeof(float));

  // Window: closed until t=50 ms, then open 50 ms of every 100 ms.
  TrafficSchedule sched;
  sched.t0 = fabric.loop().now();
  sched.period = millis(100);
  sched.allowed.push_back({millis(50), millis(100)});
  fabric.set_traffic_schedule(app, sched);

  int remaining = 2;
  Time done_at = 0.0;
  for (int r = 0; r < 2; ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, coll::DataType::kFloat32,
                              coll::ReduceOp::kSum, *ranks[r].stream,
                              [&](Time t) { done_at = t; --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  // Data could only move after the window opened at 50 ms.
  EXPECT_GE(done_at, sched.t0 + millis(50));
}

TEST(TrafficGating, UnrestrictedAfterClearSchedule) {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 4096;
  std::vector<gpu::DevicePtr> buf(2);
  for (int r = 0; r < 2; ++r) buf[r] = ranks[r].shim->alloc(count * sizeof(float));

  TrafficSchedule sched;
  sched.t0 = fabric.loop().now();
  sched.period = seconds(10);
  sched.allowed.push_back({seconds(9), seconds(10)});  // closed for 9 s
  fabric.set_traffic_schedule(app, sched);
  fabric.clear_traffic_schedule(app);

  int remaining = 2;
  for (int r = 0; r < 2; ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, coll::DataType::kFloat32,
                              coll::ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  EXPECT_LT(fabric.loop().now(), seconds(1));  // no 9-second stall
}

TEST(TrafficGating, GatingOnlyAffectsTheScheduledApp) {
  Fabric fabric{cluster::make_testbed()};
  AppId gated{1}, free_app{2};
  const std::vector<GpuId> gpus_gated{GpuId{0}, GpuId{4}};
  const std::vector<GpuId> gpus_free{GpuId{1}, GpuId{5}};
  const CommId comm_g = create_comm(fabric, gated, gpus_gated);
  const CommId comm_f = create_comm(fabric, free_app, gpus_free);
  auto ranks_g = make_ranks(fabric, gated, gpus_gated);
  auto ranks_f = make_ranks(fabric, free_app, gpus_free);
  const std::size_t count = 1u << 18;
  std::vector<gpu::DevicePtr> bg(2), bf(2);
  for (int r = 0; r < 2; ++r) {
    bg[r] = ranks_g[r].shim->alloc(count * sizeof(float));
    bf[r] = ranks_f[r].shim->alloc(count * sizeof(float));
  }
  TrafficSchedule sched;
  sched.t0 = fabric.loop().now();
  sched.period = millis(200);
  sched.allowed.push_back({millis(100), millis(200)});
  fabric.set_traffic_schedule(gated, sched);

  Time gated_done = 0, free_done = 0;
  int remaining = 4;
  for (int r = 0; r < 2; ++r) {
    ranks_g[r].shim->all_reduce(comm_g, bg[r], bg[r], count, coll::DataType::kFloat32,
                                coll::ReduceOp::kSum, *ranks_g[r].stream,
                                [&](Time t) { gated_done = t; --remaining; });
    ranks_f[r].shim->all_reduce(comm_f, bf[r], bf[r], count, coll::DataType::kFloat32,
                                coll::ReduceOp::kSum, *ranks_f[r].stream,
                                [&](Time t) { free_done = t; --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  EXPECT_LT(free_done, sched.t0 + millis(100));
  EXPECT_GE(gated_done, sched.t0 + millis(100));
}

TEST(ControllerPolicy, AttachInstallsLocalityRingsAndRoutes) {
  Fabric fabric{cluster::make_testbed()};
  policy::Controller controller(fabric);
  controller.set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
  controller.set_flow_policy(policy::Controller::FlowPolicy::kFfa);
  controller.attach();

  AppId app{1};
  // Ranks deliberately interleaved across racks: the controller must fix it.
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}, GpuId{2}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  const auto& strategy = fabric.strategy_of(comm);
  const auto& order = strategy.channel_orders[0].order();
  EXPECT_EQ(policy::cross_rack_edges(order, gpus, fabric.cluster()), 2);
  EXPECT_FALSE(strategy.routes.empty());  // FFA installed explicit routes
}

TEST(ControllerPolicy, SecondJobTriggersRebalanceOfFirst) {
  Fabric fabric{cluster::make_testbed()};
  policy::Controller controller(fabric);
  controller.attach();

  const CommId comm_a = create_comm(fabric, AppId{1}, {GpuId{0}, GpuId{4}});
  const auto routes_before = fabric.strategy_of(comm_a).routes;
  const CommId comm_b = create_comm(fabric, AppId{2}, {GpuId{1}, GpuId{5}});
  fabric.loop().run();  // let any reconfiguration settle

  // Both jobs have one cross-rack flow in each direction; FFA must keep them
  // on distinct spines.
  const auto& ra = fabric.strategy_of(comm_a).routes;
  const auto& rb = fabric.strategy_of(comm_b).routes;
  ASSERT_FALSE(ra.empty());
  ASSERT_FALSE(rb.empty());
  for (const auto& [key, route_a] : ra) {
    auto it = rb.find(key);
    if (it != rb.end()) {
      EXPECT_NE(route_a.get() % 2, it->second.get() % 2)
          << "both jobs' flows hash to the same spine";
    }
  }
}

/// A short periodic TP-style job: two layers, 4 MB activations, 18 ms of
/// compute per iteration and no input stalls.
workload::TrainingModelSpec short_tp_model() {
  workload::TrainingModelSpec m = workload::gpt27b_tensor_parallel();
  m.layers = 2;
  m.tp_activation_bytes = 4_MB;
  m.forward_compute = millis(6);
  m.backward_compute = millis(12);
  m.h2d_bytes_per_iter = 0;
  m.input_stall = 0;
  return m;
}

TEST(ControllerPolicy, TimeScheduleFromRealTraceGatesOtherTenant) {
  Fabric fabric{cluster::make_testbed()};
  policy::Controller controller(fabric);
  controller.attach();

  // Prioritised tenant A runs a periodic TP-style job to build a trace.
  workload::TrainingJob job_a(fabric, AppId{1}, {GpuId{0}, GpuId{4}},
                              short_tp_model(), {.iterations = 8});
  job_a.start();
  fabric.loop().run();
  ASSERT_TRUE(job_a.finished());

  EXPECT_TRUE(controller.apply_time_schedule(AppId{1}, {AppId{2}}));
  controller.clear_time_schedule({AppId{2}});
}

TEST(ControllerPolicy, PeriodicTrafficSchedulingEndsWithThePriorityJob) {
  // The administrator loop re-profiles tenant A every 20 ms and confines B to
  // A's idle cycles. Once A finishes, the next tick lifts B's schedule and
  // stops rescheduling: the loop drains, and nothing the ticks allocated
  // outlives them (a leak-checking build reports any tick left behind).
  Fabric fabric{cluster::make_testbed()};
  policy::Controller controller(fabric);
  controller.attach();
  workload::TrainingJob job_a(fabric, AppId{1}, {GpuId{0}, GpuId{4}},
                              short_tp_model(), {.iterations = 8});
  workload::TrainingJob job_b(fabric, AppId{2}, {GpuId{1}, GpuId{5}},
                              short_tp_model(), {.iterations = 8});
  job_a.start();
  job_b.start();
  workload::run_periodic_traffic_scheduling(fabric, controller, job_a,
                                            {AppId{2}}, millis(20));

  ASSERT_TRUE(
      fabric.loop().run_while_pending([&] { return job_a.finished(); }));
  fabric.loop().run();
  EXPECT_TRUE(job_b.finished());
  EXPECT_TRUE(fabric.loop().empty());
}

}  // namespace
}  // namespace mccs
