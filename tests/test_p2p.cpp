// Tests of point-to-point send/recv through the service (§5): rendezvous
// matching, ordering, cross- and intra-host transfers, and independence from
// the collective sequence space (P2P neither gates nor is gated by
// reconfigurations).

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using coll::DataType;
using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

struct P2pFixture : ::testing::Test {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  std::vector<GpuId> gpus{GpuId{0}, GpuId{1}, GpuId{4}};  // 2 hosts
  CommId comm;
  std::vector<test::RankCtx> ranks;

  void SetUp() override {
    comm = create_comm(fabric, app, gpus);
    ranks = make_ranks(fabric, app, gpus);
  }

  gpu::DevicePtr filled(int rank, std::size_t count, int salt) {
    gpu::DevicePtr p =
        ranks[static_cast<std::size_t>(rank)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, p, count, rank, salt);
    return p;
  }
};

TEST_F(P2pFixture, CrossHostSendRecvDeliversBytes) {
  const std::size_t count = 777;
  gpu::DevicePtr src = filled(0, count, 1);
  gpu::DevicePtr dst = ranks[2].shim->alloc(count * sizeof(float));
  int remaining = 2;
  ranks[0].shim->send(comm, 2, src, count, DataType::kFloat32, *ranks[0].stream,
                      [&](Time) { --remaining; });
  ranks[2].shim->recv(comm, 0, dst, count, DataType::kFloat32, *ranks[2].stream,
                      [&](Time) { --remaining; });
  ASSERT_TRUE(await(fabric, remaining));
  auto in = fabric.gpus().typed<float>(src, count);
  auto out = fabric.gpus().typed<float>(dst, count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], in[i]);
}

TEST_F(P2pFixture, IntraHostSendRecvDeliversBytes) {
  const std::size_t count = 128;
  gpu::DevicePtr src = filled(0, count, 2);
  gpu::DevicePtr dst = ranks[1].shim->alloc(count * sizeof(float));
  int remaining = 2;
  ranks[0].shim->send(comm, 1, src, count, DataType::kFloat32, *ranks[0].stream,
                      [&](Time) { --remaining; });
  ranks[1].shim->recv(comm, 0, dst, count, DataType::kFloat32, *ranks[1].stream,
                      [&](Time) { --remaining; });
  ASSERT_TRUE(await(fabric, remaining));
  auto in = fabric.gpus().typed<float>(src, count);
  auto out = fabric.gpus().typed<float>(dst, count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], in[i]);
}

TEST_F(P2pFixture, RecvPostedBeforeSendStillMatches) {
  const std::size_t count = 64;
  gpu::DevicePtr dst = ranks[2].shim->alloc(count * sizeof(float));
  int remaining = 2;
  // Recv first; send issued much later.
  ranks[2].shim->recv(comm, 0, dst, count, DataType::kFloat32, *ranks[2].stream,
                      [&](Time) { --remaining; });
  gpu::DevicePtr src = filled(0, count, 3);
  fabric.loop().schedule_at(millis(20), [&] {
    ranks[0].shim->send(comm, 2, src, count, DataType::kFloat32,
                        *ranks[0].stream, [&](Time) { --remaining; });
  });
  ASSERT_TRUE(await(fabric, remaining));
  auto in = fabric.gpus().typed<float>(src, count);
  auto out = fabric.gpus().typed<float>(dst, count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], in[i]);
}

TEST_F(P2pFixture, MultipleSendsMatchRecvsInOrder) {
  const std::size_t count = 16;
  std::vector<gpu::DevicePtr> srcs, dsts;
  int remaining = 0;
  for (int k = 0; k < 5; ++k) {
    srcs.push_back(filled(0, count, 100 + k));
    dsts.push_back(ranks[2].shim->alloc(count * sizeof(float)));
    remaining += 2;
  }
  // Interleave issue order: all sends, then all recvs.
  for (int k = 0; k < 5; ++k) {
    ranks[0].shim->send(comm, 2, srcs[static_cast<std::size_t>(k)], count,
                        DataType::kFloat32, *ranks[0].stream,
                        [&](Time) { --remaining; });
  }
  for (int k = 0; k < 5; ++k) {
    ranks[2].shim->recv(comm, 0, dsts[static_cast<std::size_t>(k)], count,
                        DataType::kFloat32, *ranks[2].stream,
                        [&](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int k = 0; k < 5; ++k) {
    auto in = fabric.gpus().typed<float>(srcs[static_cast<std::size_t>(k)], count);
    auto out = fabric.gpus().typed<float>(dsts[static_cast<std::size_t>(k)], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], in[i]) << "pair " << k;
    }
  }
}

TEST_F(P2pFixture, BidirectionalExchange) {
  // Send and recv on separate streams per rank — the standard pattern for a
  // bidirectional exchange (on one stream, the recv's dependency chain would
  // wait for the send's completion event, the classic unpaired deadlock).
  const std::size_t count = 32;
  gpu::DevicePtr a_out = filled(0, count, 7);
  gpu::DevicePtr c_out = filled(2, count, 9);
  gpu::DevicePtr a_in = ranks[0].shim->alloc(count * sizeof(float));
  gpu::DevicePtr c_in = ranks[2].shim->alloc(count * sizeof(float));
  gpu::Stream& a_recv_stream = ranks[0].shim->create_app_stream();
  gpu::Stream& c_recv_stream = ranks[2].shim->create_app_stream();
  int remaining = 4;
  auto cb = [&](Time) { --remaining; };
  ranks[0].shim->send(comm, 2, a_out, count, DataType::kFloat32, *ranks[0].stream, cb);
  ranks[0].shim->recv(comm, 2, a_in, count, DataType::kFloat32, a_recv_stream, cb);
  ranks[2].shim->send(comm, 0, c_out, count, DataType::kFloat32, *ranks[2].stream, cb);
  ranks[2].shim->recv(comm, 0, c_in, count, DataType::kFloat32, c_recv_stream, cb);
  ASSERT_TRUE(await(fabric, remaining));
  auto ao = fabric.gpus().typed<float>(a_out, count);
  auto ci = fabric.gpus().typed<float>(c_in, count);
  auto co = fabric.gpus().typed<float>(c_out, count);
  auto ai = fabric.gpus().typed<float>(a_in, count);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_FLOAT_EQ(ci[i], ao[i]);
    ASSERT_FLOAT_EQ(ai[i], co[i]);
  }
}

TEST_F(P2pFixture, MismatchedSizesAreRejected) {
  gpu::DevicePtr src = filled(0, 64, 1);
  gpu::DevicePtr dst = ranks[2].shim->alloc(32 * sizeof(float));
  ranks[0].shim->send(comm, 2, src, 64, DataType::kFloat32, *ranks[0].stream);
  ranks[2].shim->recv(comm, 0, dst, 32, DataType::kFloat32, *ranks[2].stream);
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(P2pFixture, P2pDoesNotBlockReconfiguration) {
  // An unmatched recv is outstanding; a reconfiguration must still complete
  // (P2P is outside the collective sequence space).
  gpu::DevicePtr dst = ranks[2].shim->alloc(64 * sizeof(float));
  int remaining = 2;
  ranks[2].shim->recv(comm, 0, dst, 64, DataType::kFloat32, *ranks[2].stream,
                      [&](Time) { --remaining; });
  svc::CommStrategy rev = fabric.strategy_of(comm);
  for (auto& o : rev.channel_orders) o = o.reversed();
  const svc::CommStrategy target = rev;
  fabric.reconfigure(comm, std::move(rev));
  fabric.loop().run();
  EXPECT_TRUE(fabric.proxy_for(gpus[0]).strategy(comm) == target);
  // Now complete the P2P pair under the new configuration.
  gpu::DevicePtr src = filled(0, 64, 4);
  ranks[0].shim->send(comm, 2, src, 64, DataType::kFloat32, *ranks[0].stream,
                      [&](Time) { --remaining; });
  ASSERT_TRUE(await(fabric, remaining));
}

TEST_F(P2pFixture, SendToSelfIsRejected) {
  // Refused at the tenant's own call, with nothing enqueued for the loop.
  gpu::DevicePtr buf = filled(0, 16, 1);
  EXPECT_THROW(ranks[0].shim->send(comm, 0, buf, 16, DataType::kFloat32,
                                   *ranks[0].stream),
               ContractViolation);
  EXPECT_NO_THROW(fabric.loop().run());
}

}  // namespace
}  // namespace mccs
