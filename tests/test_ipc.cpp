// Tests of the shared-memory IPC layer: the SPSC ring's bounds/FIFO
// behaviour and the CommandQueue's doorbell timing model.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "mccs/ipc.h"

namespace mccs::svc {
namespace {

TEST(SpscQueue, FifoOrder) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.try_pop(), i);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscQueue, FullAndEmptyBoundaries) {
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(99));
  EXPECT_EQ(q.try_pop(), 0);
  EXPECT_TRUE(q.try_push(4));  // wrapped slot reused
  EXPECT_TRUE(q.full());
}

TEST(SpscQueue, WrapsManyTimesWithoutCorruption) {
  SpscQueue<int> q(4);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    while (!q.full()) ASSERT_TRUE(q.try_push(next_push++));
    while (!q.empty()) ASSERT_EQ(q.try_pop(), next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscQueue, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(SpscQueue<int>(3), ContractViolation);
  EXPECT_THROW(SpscQueue<int>(1), ContractViolation);
}

TEST(CommandQueue, DeliversAfterLatencyInOrder) {
  sim::EventLoop loop;
  std::vector<int> got;
  CommandQueue<int> q(loop, micros(10), 16, [&](int v) { got.push_back(v); });
  q.push(1);
  q.push(2);
  q.push(3);
  loop.run_until(micros(9));
  EXPECT_TRUE(got.empty());  // still in the ring
  loop.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(CommandQueue, BurstsCoalesceIntoOneWakeup) {
  sim::EventLoop loop;
  std::vector<Time> delivery_times;
  CommandQueue<int> q(loop, micros(10), 16,
                      [&](int) { delivery_times.push_back(loop.now()); });
  for (int i = 0; i < 6; ++i) q.push(i);
  loop.run();
  ASSERT_EQ(delivery_times.size(), 6u);
  // One doorbell: everything drains at the same wakeup instant.
  for (Time t : delivery_times) EXPECT_DOUBLE_EQ(t, micros(10));
}

TEST(CommandQueue, SecondBurstGetsItsOwnDoorbell) {
  sim::EventLoop loop;
  std::vector<Time> delivery_times;
  CommandQueue<int> q(loop, micros(10), 16,
                      [&](int) { delivery_times.push_back(loop.now()); });
  q.push(1);
  loop.run();
  q.push(2);
  loop.run();
  ASSERT_EQ(delivery_times.size(), 2u);
  EXPECT_DOUBLE_EQ(delivery_times[0], micros(10));
  EXPECT_DOUBLE_EQ(delivery_times[1], micros(20));
}

TEST(CommandQueue, OverrunThrows) {
  sim::EventLoop loop;
  CommandQueue<int> q(loop, micros(10), 4, [](int) {});
  for (int i = 0; i < 4; ++i) q.push(i);
  EXPECT_THROW(q.push(4), ContractViolation);
}

TEST(CommandQueue, ConsumerMayPushMoreWork) {
  // A consumer that triggers further pushes (e.g., a retry) must not lose
  // or reorder anything.
  sim::EventLoop loop;
  std::vector<int> got;
  CommandQueue<int>* qp = nullptr;
  CommandQueue<int> q(loop, micros(5), 16, [&](int v) {
    got.push_back(v);
    if (v == 1) qp->push(10);
  });
  qp = &q;
  q.push(1);
  q.push(2);
  loop.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 10}));
}

// --- end-to-end: the shim path really goes through the ring --------------------

TEST(IpcIntegration, BackToBackIssuesShareOneDoorbell) {
  Fabric fabric{cluster::make_testbed()};
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  std::vector<gpu::DevicePtr> buf(2);
  for (int r = 0; r < 2; ++r) buf[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(1024);

  // Issue a burst; the frontend's queue must report the backlog before the
  // doorbell fires and drain it afterwards.
  int remaining = 6;
  for (int i = 0; i < 3; ++i) {
    for (int r = 0; r < 2; ++r) {
      ranks[static_cast<std::size_t>(r)].shim->all_reduce(
          comm, buf[static_cast<std::size_t>(r)], buf[static_cast<std::size_t>(r)], 16,
          coll::DataType::kFloat32, coll::ReduceOp::kSum,
          *ranks[static_cast<std::size_t>(r)].stream,
          [&remaining](Time) { --remaining; });
    }
  }
  auto& queue = fabric.frontend(app, HostId{0}).command_queue(GpuId{0});
  EXPECT_EQ(queue.depth(), 3u);
  ASSERT_TRUE(test::await(fabric, remaining));
  EXPECT_EQ(queue.depth(), 0u);
}

}  // namespace
}  // namespace mccs::svc
