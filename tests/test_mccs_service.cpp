// End-to-end tests of the MCCS service on the paper's testbed cluster:
// applications attach shims, allocate service-managed buffers, create
// communicators and run collectives whose numerical results are verified
// against locally computed expectations.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/types.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using coll::CollectiveKind;
using coll::DataType;
using coll::ReduceOp;
using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

struct ServiceFixture : ::testing::Test {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
};

TEST_F(ServiceFixture, ShimAllocGivesValidBuffersAndFreeReleases) {
  svc::Shim& shim = fabric.connect(app, GpuId{0});
  const gpu::DevicePtr p = shim.alloc(1024);
  ASSERT_TRUE(p.valid());
  auto span = fabric.gpus().typed<float>(p, 256);
  span[0] = 42.0f;
  EXPECT_EQ(fabric.gpus().typed<float>(p, 256)[0], 42.0f);
  shim.free(p);
  EXPECT_FALSE(fabric.gpus().gpu(GpuId{0}).mem_valid(p.mem));
}

TEST_F(ServiceFixture, FreeingForeignBufferIsRejected) {
  svc::Shim& shim = fabric.connect(app, GpuId{0});
  gpu::DevicePtr direct = fabric.gpus().gpu(GpuId{0}).allocate(64);
  EXPECT_THROW(shim.free(direct), ContractViolation);
}

TEST_F(ServiceFixture, CollectiveOnUnregisteredBufferIsRejected) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  // recv buffer not allocated through the service:
  gpu::DevicePtr rogue = fabric.gpus().gpu(GpuId{0}).allocate(1024);
  gpu::DevicePtr ok = ranks[0].shim->alloc(1024);
  ranks[0].shim->all_reduce(comm, ok, rogue, 256, DataType::kFloat32,
                            ReduceOp::kSum, *ranks[0].stream);
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(ServiceFixture, CommunicatorBootstrapCompletesForAllRanks) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  for (GpuId g : gpus) {
    EXPECT_TRUE(fabric.proxy_for(g).has_communicator(comm));
  }
  const svc::CommInfo& info = fabric.comm_info(comm);
  EXPECT_EQ(info.nranks, 4);
  EXPECT_EQ(info.app, app);
}

TEST_F(ServiceFixture, DefaultStrategyFollowsUserRankOrder) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  const svc::CommStrategy& s = fabric.strategy_of(comm);
  ASSERT_EQ(s.num_channels(), 1);  // one GPU per host used
  for (int p = 0; p < 4; ++p) EXPECT_EQ(s.channel_orders[0].rank_at(p), p);
  EXPECT_TRUE(s.routes.empty());  // ECMP
}

// Run one AllReduce over the given GPUs and verify sums.
void run_allreduce_and_check(Fabric& fabric, AppId app,
                             const std::vector<GpuId>& gpus, std::size_t count) {
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const int n = static_cast<int>(gpus.size());

  std::vector<gpu::DevicePtr> send(gpus.size()), recv(gpus.size());
  for (int r = 0; r < n; ++r) {
    send[r] = ranks[r].shim->alloc(count * sizeof(float));
    recv[r] = ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, send[r], count, r);
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    ranks[r].shim->all_reduce(comm, send[r], recv[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));

  std::vector<float> expected(count);
  for (int r = 0; r < n; ++r) {
    auto s = fabric.gpus().typed<float>(send[r], count);
    for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
  }
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(recv[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], expected[i]) << "rank " << r << " elem " << i;
    }
  }
}

TEST_F(ServiceFixture, AllReduceTwoRanksSameRack) {
  run_allreduce_and_check(fabric, app, {GpuId{0}, GpuId{2}}, 1024);
}

TEST_F(ServiceFixture, AllReduceTwoRanksCrossRack) {
  run_allreduce_and_check(fabric, app, {GpuId{0}, GpuId{4}}, 1024);
}

TEST_F(ServiceFixture, AllReduceFourRanksOneGpuPerHost) {
  run_allreduce_and_check(fabric, app, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}}, 4096);
}

TEST_F(ServiceFixture, AllReduceEightRanksMultiChannel) {
  run_allreduce_and_check(
      fabric, app,
      {GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3}, GpuId{4}, GpuId{5}, GpuId{6}, GpuId{7}},
      4096);
}

TEST_F(ServiceFixture, AllReduceIntraHostPair) {
  run_allreduce_and_check(fabric, app, {GpuId{0}, GpuId{1}}, 512);
}

TEST_F(ServiceFixture, AllReduceCountSmallerThanChunks) {
  // count=3 over 4 ranks: some chunks are empty.
  run_allreduce_and_check(fabric, app, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}}, 3);
}

TEST_F(ServiceFixture, AllReduceInPlace) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 256;
  std::vector<gpu::DevicePtr> buf(2);
  std::vector<std::vector<float>> inputs(2);
  for (int r = 0; r < 2; ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[r], count, r);
    auto s = fabric.gpus().typed<float>(buf[r], count);
    inputs[r].assign(s.begin(), s.end());
  }
  int remaining = 2;
  for (int r = 0; r < 2; ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < 2; ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], inputs[0][i] + inputs[1][i]);
    }
  }
}

TEST_F(ServiceFixture, AllGatherCollectsAllRankBlocks) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 300;  // not divisible by channels
  const int n = 4;
  std::vector<gpu::DevicePtr> send(4), recv(4);
  for (int r = 0; r < n; ++r) {
    send[r] = ranks[r].shim->alloc(count * sizeof(float));
    recv[r] = ranks[r].shim->alloc(count * n * sizeof(float));
    test::fill_pattern<float>(fabric, send[r], count, r);
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    ranks[r].shim->all_gather(comm, send[r], recv[r], count, DataType::kFloat32,
                              *ranks[r].stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(recv[r], count * n);
    for (int src = 0; src < n; ++src) {
      auto in = fabric.gpus().typed<float>(send[src], count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(src) * count + i], in[i])
            << "rank " << r << " block " << src << " elem " << i;
      }
    }
  }
}

TEST_F(ServiceFixture, ReduceScatterLeavesOwnedChunk) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 128;  // per-rank output elements
  const int n = 4;
  std::vector<gpu::DevicePtr> send(4), recv(4);
  for (int r = 0; r < n; ++r) {
    send[r] = ranks[r].shim->alloc(count * n * sizeof(float));
    recv[r] = ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, send[r], count * n, r);
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    ranks[r].shim->reduce_scatter(comm, send[r], recv[r], count,
                                  DataType::kFloat32, ReduceOp::kSum,
                                  *ranks[r].stream,
                                  [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(recv[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      float expected = 0;
      for (int src = 0; src < n; ++src) {
        expected += fabric.gpus().typed<float>(
            send[src], count * n)[static_cast<std::size_t>(r) * count + i];
      }
      ASSERT_FLOAT_EQ(out[i], expected) << "rank " << r << " elem " << i;
    }
  }
}

TEST_F(ServiceFixture, BroadcastFromNonZeroRoot) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 200;
  const int n = 4;
  const int root = 2;
  std::vector<gpu::DevicePtr> buf(4);
  for (int r = 0; r < n; ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[r], count, r);
  }
  std::vector<float> root_data;
  {
    auto s = fabric.gpus().typed<float>(buf[root], count);
    root_data.assign(s.begin(), s.end());
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    ranks[r].shim->broadcast(comm, buf[r], buf[r], count, DataType::kFloat32,
                             root, *ranks[r].stream,
                             [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], root_data[i]) << "rank " << r;
    }
  }
}

// --- chunks that arrive before their collective begins ---------------------
// On rooted and star kinds a sender can complete before its peer issues the
// same collective. The peer keeps the chunks that came early, and it must
// keep their bytes: once the sender completed, its buffers are its tenant's
// again, to rewrite or free.

// Reduce to root 0 on `gpus`, which the root issues only after its peer
// completed (the peer's chunks came from a scratch copy the service
// releases at completion), while a second tenant's AllReduce runs on two
// GPUs the first does not use.
void run_late_reduce_root(Fabric& fabric, const std::vector<GpuId>& gpus) {
  const AppId app{1};
  const AppId other{2};
  const std::vector<GpuId> other_gpus{GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  const CommId other_comm = create_comm(fabric, other, other_gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  auto other_ranks = make_ranks(fabric, other, other_gpus);
  const std::size_t count = 1024;
  std::vector<gpu::DevicePtr> send(2), other_buf(2);
  std::vector<float> sum(count), other_sum(count);
  for (int r = 0; r < 2; ++r) {
    send[r] = ranks[r].shim->alloc(count * sizeof(float));
    other_buf[r] = other_ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, send[r], count, r);
    test::fill_pattern<float>(fabric, other_buf[r], count, r, 2);
    auto a = fabric.gpus().typed<float>(send[r], count);
    auto b = fabric.gpus().typed<float>(other_buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      sum[i] += a[i];
      other_sum[i] += b[i];
    }
  }
  const gpu::DevicePtr recv = ranks[0].shim->alloc(count * sizeof(float));

  int peer_done = 1;
  ranks[1].shim->reduce(comm, send[1], gpu::DevicePtr{}, count,
                        DataType::kFloat32, ReduceOp::kSum, /*root=*/0,
                        *ranks[1].stream, [&peer_done](Time) { --peer_done; });
  ASSERT_TRUE(await(fabric, peer_done));

  int remaining = 3;
  ranks[0].shim->reduce(comm, send[0], recv, count, DataType::kFloat32,
                        ReduceOp::kSum, /*root=*/0, *ranks[0].stream,
                        [&remaining](Time) { --remaining; });
  for (int r = 0; r < 2; ++r) {
    other_ranks[r].shim->all_reduce(other_comm, other_buf[r], other_buf[r],
                                    count, DataType::kFloat32, ReduceOp::kSum,
                                    *other_ranks[r].stream,
                                    [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  auto out = fabric.gpus().typed<float>(recv, count);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(out[i], sum[i]) << "elem " << i;
  }
  for (int r = 0; r < 2; ++r) {
    auto o = fabric.gpus().typed<float>(other_buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(o[i], other_sum[i]) << "other tenant rank " << r << " elem " << i;
    }
  }
}

TEST_F(ServiceFixture, LateReduceRootInterHost) {
  run_late_reduce_root(fabric, {GpuId{0}, GpuId{2}});
}

TEST_F(ServiceFixture, LateReduceRootSameHost) {
  run_late_reduce_root(fabric, {GpuId{0}, GpuId{1}});
}

TEST_F(ServiceFixture, BroadcastPeerIssuingLateGetsTheBytesTheRootSent) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 256;
  const gpu::DevicePtr root_send = ranks[0].shim->alloc(count * sizeof(float));
  const gpu::DevicePtr root_recv = ranks[0].shim->alloc(count * sizeof(float));
  const gpu::DevicePtr peer_recv = ranks[1].shim->alloc(count * sizeof(float));
  for (auto& x : fabric.gpus().typed<float>(root_send, count)) x = 1.0f;

  int root_done = 1;
  ranks[0].shim->broadcast(comm, root_send, root_recv, count,
                           DataType::kFloat32, /*root=*/0, *ranks[0].stream,
                           [&root_done](Time) { --root_done; });
  ASSERT_TRUE(await(fabric, root_done));
  // The root's collective is over: its buffers are its own to rewrite.
  for (auto& x : fabric.gpus().typed<float>(root_send, count)) x = 99.0f;
  for (auto& x : fabric.gpus().typed<float>(root_recv, count)) x = 99.0f;

  int peer_done = 1;
  ranks[1].shim->broadcast(comm, gpu::DevicePtr{}, peer_recv, count,
                           DataType::kFloat32, /*root=*/0, *ranks[1].stream,
                           [&peer_done](Time) { --peer_done; });
  ASSERT_TRUE(await(fabric, peer_done));
  auto out = fabric.gpus().typed<float>(peer_recv, count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(out[i], 1.0f) << i;
}

TEST_F(ServiceFixture, GatherRootIssuingLateGetsAFreedPeerBuffer) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 256;
  std::vector<gpu::DevicePtr> send(2);
  std::vector<std::vector<float>> sent(2);
  for (int r = 0; r < 2; ++r) {
    send[r] = ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, send[r], count, r);
    auto s = fabric.gpus().typed<float>(send[r], count);
    sent[r].assign(s.begin(), s.end());
  }
  const gpu::DevicePtr recv = ranks[0].shim->alloc(2 * count * sizeof(float));

  int peer_done = 1;
  ranks[1].shim->gather(comm, send[1], gpu::DevicePtr{}, count,
                        DataType::kFloat32, /*root=*/0, *ranks[1].stream,
                        [&peer_done](Time) { --peer_done; });
  ASSERT_TRUE(await(fabric, peer_done));
  ranks[1].shim->free(send[1]);

  int root_done = 1;
  ranks[0].shim->gather(comm, send[0], recv, count, DataType::kFloat32,
                        /*root=*/0, *ranks[0].stream,
                        [&root_done](Time) { --root_done; });
  ASSERT_TRUE(await(fabric, root_done));
  auto out = fabric.gpus().typed<float>(recv, 2 * count);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[r * count + i], sent[r][i]) << "block " << r << " elem " << i;
    }
  }
}

TEST_F(ServiceFixture, PeerIssuingAfterTwentyRootBroadcastsGetsEachOnesData) {
  // The peer issues nothing until the root completed all twenty, so every
  // chunk waits in a window entry of a sequence number the peer has not
  // issued yet.
  constexpr int kCollectives = 20;
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 128;
  const gpu::DevicePtr root_buf = ranks[0].shim->alloc(count * sizeof(float));
  for (int k = 0; k < kCollectives; ++k) {
    for (auto& x : fabric.gpus().typed<float>(root_buf, count)) {
      x = static_cast<float>(k + 1);
    }
    int root_done = 1;
    ranks[0].shim->broadcast(comm, root_buf, root_buf, count,
                             DataType::kFloat32, /*root=*/0, *ranks[0].stream,
                             [&root_done](Time) { --root_done; });
    ASSERT_TRUE(await(fabric, root_done)) << "root collective " << k;
  }

  std::vector<gpu::DevicePtr> peer_buf(kCollectives);
  int remaining = kCollectives;
  for (int k = 0; k < kCollectives; ++k) {
    peer_buf[k] = ranks[1].shim->alloc(count * sizeof(float));
    ranks[1].shim->broadcast(comm, gpu::DevicePtr{}, peer_buf[k], count,
                             DataType::kFloat32, /*root=*/0, *ranks[1].stream,
                             [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int k = 0; k < kCollectives; ++k) {
    auto out = fabric.gpus().typed<float>(peer_buf[k], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], static_cast<float>(k + 1))
          << "collective " << k << " elem " << i;
    }
  }
}

TEST_F(ServiceFixture, BackToBackCollectivesSerializeOnCommStream) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 64;
  std::vector<gpu::DevicePtr> buf(2);
  for (int r = 0; r < 2; ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    auto s = fabric.gpus().typed<float>(buf[r], count);
    for (auto& x : s) x = 1.0f;
  }
  // Three successive in-place AllReduces: values go 1 -> 2 -> 4 -> 8.
  int remaining = 6;
  for (int round = 0; round < 3; ++round) {
    for (int r = 0; r < 2; ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                                ReduceOp::kSum, *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < 2; ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], 8.0f);
  }
}

TEST_F(ServiceFixture, CollectiveWaitsForComputeOnAppStream) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 16;
  std::vector<gpu::DevicePtr> buf(2);
  for (int r = 0; r < 2; ++r) buf[r] = ranks[r].shim->alloc(count * sizeof(float));

  // Rank 0's "compute kernel" takes 50 ms and writes the inputs only when it
  // finishes; if the collective did not respect the app-stream dependency it
  // would reduce zeros.
  ranks[0].stream->enqueue_compute(0.05, [&] {
    auto s = fabric.gpus().typed<float>(buf[0], count);
    for (auto& x : s) x = 3.0f;
  });
  {
    auto s = fabric.gpus().typed<float>(buf[1], count);
    for (auto& x : s) x = 4.0f;
  }
  int remaining = 2;
  for (int r = 0; r < 2; ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  EXPECT_GE(fabric.loop().now(), 0.05);
  for (int r = 0; r < 2; ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], 7.0f);
  }
}

TEST_F(ServiceFixture, TraceRecordsCollectiveLifecycle) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 1024;
  std::vector<gpu::DevicePtr> buf(2);
  for (int r = 0; r < 2; ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
  }
  int remaining = 2;
  for (int r = 0; r < 2; ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  const auto trace = fabric.trace(app);
  ASSERT_EQ(trace.size(), 2u);  // one record per rank
  for (const auto& rec : trace) {
    EXPECT_EQ(rec.comm, comm);
    EXPECT_EQ(rec.kind, CollectiveKind::kAllReduce);
    EXPECT_EQ(rec.bytes, count * sizeof(float));
    EXPECT_LE(rec.issued, rec.launched);
    EXPECT_LE(rec.launched, rec.started);
    EXPECT_LT(rec.started, rec.completed);
  }
}

TEST_F(ServiceFixture, TwoAppsShareTheClusterIndependently) {
  AppId app_b{2};
  const std::vector<GpuId> gpus_a{GpuId{0}, GpuId{4}};
  const std::vector<GpuId> gpus_b{GpuId{1}, GpuId{5}};
  const CommId comm_a = create_comm(fabric, app, gpus_a);
  const CommId comm_b = create_comm(fabric, app_b, gpus_b);
  auto ranks_a = make_ranks(fabric, app, gpus_a);
  auto ranks_b = make_ranks(fabric, app_b, gpus_b);
  const std::size_t count = 512;
  std::vector<gpu::DevicePtr> buf_a(2), buf_b(2);
  for (int r = 0; r < 2; ++r) {
    buf_a[r] = ranks_a[r].shim->alloc(count * sizeof(float));
    buf_b[r] = ranks_b[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf_a[r], count, r, 1);
    test::fill_pattern<float>(fabric, buf_b[r], count, r, 2);
  }
  std::vector<float> exp_a(count), exp_b(count);
  for (int r = 0; r < 2; ++r) {
    auto a = fabric.gpus().typed<float>(buf_a[r], count);
    auto b = fabric.gpus().typed<float>(buf_b[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      exp_a[i] += a[i];
      exp_b[i] += b[i];
    }
  }
  int remaining = 4;
  for (int r = 0; r < 2; ++r) {
    ranks_a[r].shim->all_reduce(comm_a, buf_a[r], buf_a[r], count,
                                DataType::kFloat32, ReduceOp::kSum,
                                *ranks_a[r].stream, [&remaining](Time) { --remaining; });
    ranks_b[r].shim->all_reduce(comm_b, buf_b[r], buf_b[r], count,
                                DataType::kFloat32, ReduceOp::kSum,
                                *ranks_b[r].stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < 2; ++r) {
    auto a = fabric.gpus().typed<float>(buf_a[r], count);
    auto b = fabric.gpus().typed<float>(buf_b[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(a[i], exp_a[i]);
      ASSERT_FLOAT_EQ(b[i], exp_b[i]);
    }
  }
}

// Parameterized sweep: AllReduce correctness across dtypes and ops.
struct DtypeOpCase {
  DataType dtype;
  ReduceOp op;
};

class AllReduceDtypeOpP : public ::testing::TestWithParam<DtypeOpCase> {};

template <class T>
void check_typed_allreduce(ReduceOp op) {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 97;
  const int n = 3;
  std::vector<gpu::DevicePtr> buf(3);
  for (int r = 0; r < n; ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(T));
    auto s = fabric.gpus().typed<T>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      s[i] = static_cast<T>(1 + ((i + static_cast<std::size_t>(r) * 7) % 5));
    }
  }
  std::vector<T> expected;
  {
    auto s0 = fabric.gpus().typed<T>(buf[0], count);
    expected.assign(s0.begin(), s0.end());
    for (int r = 1; r < n; ++r) {
      auto s = fabric.gpus().typed<T>(buf[r], count);
      for (std::size_t i = 0; i < count; ++i) {
        switch (op) {
          case ReduceOp::kSum: expected[i] = expected[i] + s[i]; break;
          case ReduceOp::kProd: expected[i] = expected[i] * s[i]; break;
          case ReduceOp::kMin: expected[i] = std::min(expected[i], s[i]); break;
          case ReduceOp::kMax: expected[i] = std::max(expected[i], s[i]); break;
        }
      }
    }
  }
  int remaining = n;
  coll::DataType dtype;
  if constexpr (std::is_same_v<T, float>) dtype = DataType::kFloat32;
  else if constexpr (std::is_same_v<T, double>) dtype = DataType::kFloat64;
  else if constexpr (std::is_same_v<T, std::int32_t>) dtype = DataType::kInt32;
  else if constexpr (std::is_same_v<T, std::int64_t>) dtype = DataType::kInt64;
  else dtype = DataType::kUint8;
  for (int r = 0; r < n; ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, dtype, op,
                              *ranks[r].stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<T>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], expected[i]) << "rank " << r << " elem " << i;
    }
  }
}

TEST_P(AllReduceDtypeOpP, Correct) {
  const auto p = GetParam();
  switch (p.dtype) {
    case DataType::kFloat32: check_typed_allreduce<float>(p.op); break;
    case DataType::kFloat64: check_typed_allreduce<double>(p.op); break;
    case DataType::kInt32: check_typed_allreduce<std::int32_t>(p.op); break;
    case DataType::kInt64: check_typed_allreduce<std::int64_t>(p.op); break;
    case DataType::kUint8: check_typed_allreduce<std::uint8_t>(p.op); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllReduceDtypeOpP,
    ::testing::Values(DtypeOpCase{DataType::kFloat32, ReduceOp::kSum},
                      DtypeOpCase{DataType::kFloat32, ReduceOp::kMax},
                      DtypeOpCase{DataType::kFloat64, ReduceOp::kSum},
                      DtypeOpCase{DataType::kInt32, ReduceOp::kSum},
                      DtypeOpCase{DataType::kInt32, ReduceOp::kProd},
                      DtypeOpCase{DataType::kInt64, ReduceOp::kMin},
                      DtypeOpCase{DataType::kUint8, ReduceOp::kMax}));

// Parameterized sweep over message sizes (exercises chunking edge cases).
class AllReduceSizeP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllReduceSizeP, CorrectAcrossSizes) {
  Fabric fabric{cluster::make_testbed()};
  run_allreduce_and_check(fabric, AppId{1},
                          {GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3}, GpuId{4},
                           GpuId{5}, GpuId{6}, GpuId{7}},
                          GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllReduceSizeP,
                         ::testing::Values(1, 7, 8, 64, 1000, 4096, 65536));

}  // namespace
}  // namespace mccs
