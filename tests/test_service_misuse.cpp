// Error-path tests: the MCCS service is the multi-tenant trust boundary, so
// misuse — bad rendezvous, invalid buffers, stale control commands,
// lifecycle violations — must fail loudly and deterministically.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using svc::Fabric;
using test::create_comm;
using test::make_ranks;

struct MisuseFixture : ::testing::Test {
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
};

TEST_F(MisuseFixture, SameRankJoiningRendezvousTwiceThrows) {
  const svc::UniqueId uid = fabric.new_unique_id();
  fabric.connect(app, GpuId{0}).comm_init_rank(uid, 2, 0, {});
  fabric.connect(app, GpuId{2}).comm_init_rank(uid, 2, 0, {});
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(MisuseFixture, DisagreeingCommunicatorSizeThrows) {
  const svc::UniqueId uid = fabric.new_unique_id();
  fabric.connect(app, GpuId{0}).comm_init_rank(uid, 2, 0, {});
  fabric.connect(app, GpuId{2}).comm_init_rank(uid, 3, 1, {});
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(MisuseFixture, CommunicatorSpanningTwoAppsThrows) {
  const svc::UniqueId uid = fabric.new_unique_id();
  fabric.connect(AppId{1}, GpuId{0}).comm_init_rank(uid, 2, 0, {});
  fabric.connect(AppId{2}, GpuId{2}).comm_init_rank(uid, 2, 1, {});
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(MisuseFixture, ZeroCountCollectiveIsRejected) {
  // A zero-count collective throws at the call with nothing enqueued, so the
  // loop runs clean and the communicator's next AllReduce sums exactly.
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 16;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    for (float& x : fabric.gpus().typed<float>(buf[r], count)) {
      x = static_cast<float>(r + 1);
    }
  }
  bool zero_done = false;
  EXPECT_THROW(
      ranks[0].shim->all_reduce(comm, buf[0], buf[0], 0,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *ranks[0].stream,
                                [&zero_done](Time) { zero_done = true; }),
      ContractViolation);
  EXPECT_NO_THROW(fabric.loop().run());
  EXPECT_FALSE(zero_done);

  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                              coll::DataType::kFloat32, coll::ReduceOp::kSum,
                              *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    for (const float x : fabric.gpus().typed<float>(buf[r], count)) {
      ASSERT_EQ(x, 3.0f) << "rank " << r;
    }
  }
}

TEST_F(MisuseFixture, OutOfBoundsBufferRangeIsRejected) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  // 64-byte allocation cannot back a 32-element float AllReduce.
  gpu::DevicePtr small = ranks[0].shim->alloc(64);
  ranks[0].shim->all_reduce(comm, small, small, 32, coll::DataType::kFloat32,
                            coll::ReduceOp::kSum, *ranks[0].stream);
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(MisuseFixture, OffsetBeyondAllocationIsRejected) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  gpu::DevicePtr buf = ranks[0].shim->alloc(256);
  // Offset pushes the 32-element range past the 256-byte allocation.
  ranks[0].shim->all_reduce(comm, buf.at_offset(192), buf.at_offset(192), 32,
                            coll::DataType::kFloat32, coll::ReduceOp::kSum,
                            *ranks[0].stream);
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(MisuseFixture, AnotherTenantsBufferIsRejected) {
  // App 2's collective naming app 1's allocation must be refused: frontends
  // keep per-application allocation registries.
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm_b = create_comm(fabric, AppId{2}, gpus);
  gpu::DevicePtr stolen = fabric.connect(AppId{1}, GpuId{0}).alloc(1024);
  svc::Shim& shim_b = fabric.connect(AppId{2}, GpuId{0});
  gpu::Stream& stream = shim_b.create_app_stream();
  shim_b.all_reduce(comm_b, stolen, stolen, 16, coll::DataType::kFloat32,
                    coll::ReduceOp::kSum, stream);
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(MisuseFixture, ForeignCommunicatorIsRejectedAtTheCall) {
  // App 2's communicator has ranks on GPUs 0 and 2. A collective or destroy
  // naming it from app 1 (on GPU 0, where app 2 has a rank, or on GPU 4,
  // where it has none), or from app 2 on GPU 4, throws at that call with
  // nothing enqueued, so app 2's own AllReduce then sums exactly.
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm_b = create_comm(fabric, AppId{2}, gpus);
  auto ranks_b = make_ranks(fabric, AppId{2}, gpus);
  const std::size_t count = 64;
  bool intruder_done = false;
  for (const auto& [intruder_app, gpu] :
       {std::pair{AppId{1}, GpuId{0}}, std::pair{AppId{1}, GpuId{4}},
        std::pair{AppId{2}, GpuId{4}}}) {
    SCOPED_TRACE(::testing::Message() << "app " << intruder_app.get()
                                      << " on gpu " << gpu.get());
    svc::Shim& intruder = fabric.connect(intruder_app, gpu);
    gpu::DevicePtr own = intruder.alloc(count * sizeof(float));
    for (float& x : fabric.gpus().typed<float>(own, count)) x = 7.0f;
    EXPECT_THROW(intruder.all_reduce(comm_b, own, own, count,
                                     coll::DataType::kFloat32,
                                     coll::ReduceOp::kSum,
                                     intruder.create_app_stream(),
                                     [&intruder_done](Time) {
                                       intruder_done = true;
                                     }),
                 ContractViolation);
    EXPECT_THROW(intruder.comm_destroy(comm_b), ContractViolation);
    EXPECT_NO_THROW(fabric.loop().run());
    for (const float x : fabric.gpus().typed<float>(own, count)) {
      ASSERT_EQ(x, 7.0f);
    }
  }
  EXPECT_FALSE(intruder_done);
  EXPECT_EQ(fabric.list_communicators().size(), 1u);

  std::vector<gpu::DevicePtr> buf(gpus.size());
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks_b[r].shim->alloc(count * sizeof(float));
    for (float& x : fabric.gpus().typed<float>(buf[r], count)) {
      x = static_cast<float>(r + 1);
    }
    ranks_b[r].shim->all_reduce(comm_b, buf[r], buf[r], count,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *ranks_b[r].stream,
                                [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    for (const float x : fabric.gpus().typed<float>(buf[r], count)) {
      ASSERT_EQ(x, 3.0f) << "rank " << r;
    }
  }
}

TEST_F(MisuseFixture, P2pIsCheckedAtTheCall) {
  // A send or recv naming a communicator that never existed, another
  // application's, or a peer that is not another rank, or moving zero
  // elements, throws at the call; one on a killed communicator is dropped.
  // None of them reaches the loop.
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 16;
  gpu::DevicePtr buf = ranks[0].shim->alloc(count * sizeof(float));
  gpu::DevicePtr dst = ranks[1].shim->alloc(count * sizeof(float));
  const auto send = [&](svc::Shim& shim, CommId c, int peer) {
    shim.send(c, peer, buf, count, coll::DataType::kFloat32,
              shim.create_app_stream());
  };
  const auto recv = [&](svc::Shim& shim, CommId c, int peer) {
    shim.recv(c, peer, buf, count, coll::DataType::kFloat32,
              shim.create_app_stream());
  };
  const CommId never{comm.get() + 100};
  EXPECT_THROW(send(*ranks[0].shim, never, 1), ContractViolation);
  EXPECT_THROW(recv(*ranks[0].shim, never, 1), ContractViolation);
  for (const int peer : {-1, 0, 2}) {  // below, the caller itself, beyond
    SCOPED_TRACE(::testing::Message() << "peer " << peer);
    EXPECT_THROW(send(*ranks[0].shim, comm, peer), ContractViolation);
    EXPECT_THROW(recv(*ranks[0].shim, comm, peer), ContractViolation);
  }
  svc::Shim& other_app = fabric.connect(AppId{2}, GpuId{0});
  EXPECT_THROW(send(other_app, comm, 1), ContractViolation);
  EXPECT_THROW(recv(other_app, comm, 1), ContractViolation);
  EXPECT_THROW(ranks[0].shim->send(comm, 1, buf, 0, coll::DataType::kFloat32,
                                   ranks[0].shim->create_app_stream()),
               ContractViolation);
  EXPECT_THROW(ranks[1].shim->recv(comm, 0, dst, 0, coll::DataType::kFloat32,
                                   ranks[1].shim->create_app_stream()),
               ContractViolation);
  EXPECT_NO_THROW(fabric.loop().run());

  // The communicator still works.
  test::fill_pattern<float>(fabric, buf, count, 0);
  int remaining = 2;
  ranks[0].shim->send(comm, 1, buf, count, coll::DataType::kFloat32,
                      *ranks[0].stream, [&remaining](Time) { --remaining; });
  ranks[1].shim->recv(comm, 0, dst, count, coll::DataType::kFloat32,
                      *ranks[1].stream, [&remaining](Time) { --remaining; });
  ASSERT_TRUE(test::await(fabric, remaining));
  auto in = fabric.gpus().typed<float>(buf, count);
  auto out = fabric.gpus().typed<float>(dst, count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(out[i], in[i]);

  fabric.kill_app(app);
  EXPECT_NO_THROW(send(*ranks[0].shim, comm, 1));
  EXPECT_NO_THROW(recv(*ranks[1].shim, comm, 0));
  EXPECT_NO_THROW(fabric.loop().run());
}

TEST_F(MisuseFixture, DoubleFreeThrows) {
  svc::Shim& shim = fabric.connect(app, GpuId{0});
  gpu::DevicePtr buf = shim.alloc(64);
  shim.free(buf);
  EXPECT_THROW(shim.free(buf), ContractViolation);
}

TEST_F(MisuseFixture, FreeingAtNonZeroOffsetThrows) {
  svc::Shim& shim = fabric.connect(app, GpuId{0});
  gpu::DevicePtr buf = shim.alloc(64);
  EXPECT_THROW(shim.free(buf.at_offset(8)), ContractViolation);
}

TEST_F(MisuseFixture, CollectiveOnWrongGpuStreamThrows) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  svc::Shim& shim0 = fabric.connect(app, GpuId{0});
  svc::Shim& shim1 = fabric.connect(app, GpuId{2});
  gpu::Stream& wrong_stream = shim1.create_app_stream();  // GPU 2's stream
  gpu::DevicePtr buf = shim0.alloc(64);
  EXPECT_THROW(shim0.all_reduce(comm, buf, buf, 16, coll::DataType::kFloat32,
                                coll::ReduceOp::kSum, wrong_stream),
               ContractViolation);
}

TEST_F(MisuseFixture, DestroyWithOutstandingCollectivesThrows) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  gpu::DevicePtr buf = ranks[0].shim->alloc(1024);
  // Only rank 0 issues: the collective can never complete.
  ranks[0].shim->all_reduce(comm, buf, buf, 256, coll::DataType::kFloat32,
                            coll::ReduceOp::kSum, *ranks[0].stream);
  ranks[0].shim->comm_destroy(comm);
  EXPECT_THROW(fabric.loop().run(), ContractViolation);
}

TEST_F(MisuseFixture, SecondDestroyFromOneRankIsRejectedAtTheCall) {
  // The installed rank lives until the first destroy runs, so a second
  // destroy from the same rank is refused at the call by the rank's own
  // mark, with nothing enqueued; the communicator then leaves cleanly.
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const gpu::Gpu& dev = fabric.gpus().gpu(GpuId{0});
  const std::size_t streams = dev.stream_count();
  const CommId comm = create_comm(fabric, app, gpus);
  svc::Shim& shim0 = fabric.connect(app, GpuId{0});
  shim0.comm_destroy(comm);
  EXPECT_THROW(shim0.comm_destroy(comm), ContractViolation);
  EXPECT_NO_THROW(fabric.loop().run());
  fabric.connect(app, GpuId{2}).comm_destroy(comm);
  EXPECT_NO_THROW(fabric.loop().run());
  EXPECT_TRUE(fabric.list_communicators().empty());
  EXPECT_EQ(dev.stream_count(), streams);
}

/// App 1's rank 0 (GPU 0) destroys its rank while rank 1 (GPU 2) still sends
/// to it through `peer_sends`, and app 2 runs a 1 MiB AllReduce on GPUs
/// {1, 3} alongside. Rank 0 had nothing outstanding, so its destroy is
/// legal; the peer's late messages are dropped on arrival. The peer's own
/// operation then never completes, and that stall stays inside app 1's
/// communicator: the loop runs to its end and app 2's sums are exact.
struct DestroyRacingAPeer : MisuseFixture {
  static constexpr std::size_t kCount = std::size_t{1} << 18;  // 1 MiB of f32

  void run(const std::function<void(svc::Shim&, CommId)>& peer_sends) {
    const CommId comm = create_comm(fabric, app, {GpuId{0}, GpuId{2}});
    const AppId other_app{2};
    const std::vector<GpuId> other{GpuId{1}, GpuId{3}};
    const CommId other_comm = create_comm(fabric, other_app, other);
    auto ranks = make_ranks(fabric, other_app, other);
    std::vector<gpu::DevicePtr> buf(other.size());
    std::vector<float> expected(kCount, 0.0f);
    for (std::size_t r = 0; r < other.size(); ++r) {
      buf[r] = ranks[r].shim->alloc(kCount * sizeof(float));
      test::fill_pattern<float>(fabric, buf[r], kCount, static_cast<int>(r));
      auto s = fabric.gpus().typed<float>(buf[r], kCount);
      for (std::size_t i = 0; i < kCount; ++i) expected[i] += s[i];
    }
    int remaining = static_cast<int>(other.size());
    for (std::size_t r = 0; r < other.size(); ++r) {
      ranks[r].shim->all_reduce(other_comm, buf[r], buf[r], kCount,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
    peer_sends(fabric.connect(app, GpuId{2}), comm);
    fabric.connect(app, GpuId{0}).comm_destroy(comm);
    EXPECT_NO_THROW(fabric.loop().run());
    ASSERT_EQ(remaining, 0);
    for (std::size_t r = 0; r < other.size(); ++r) {
      auto out = fabric.gpus().typed<float>(buf[r], kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(out[i], expected[i]) << "rank " << r << " elem " << i;
      }
    }
  }
};

TEST_F(DestroyRacingAPeer, PeersCollectiveChunksAreDropped) {
  run([](svc::Shim& peer, CommId comm) {
    const gpu::DevicePtr buf = peer.alloc(kCount * sizeof(float));
    peer.all_reduce(comm, buf, buf, kCount, coll::DataType::kFloat32,
                    coll::ReduceOp::kSum, peer.create_app_stream());
  });
}

TEST_F(DestroyRacingAPeer, PeersP2pSendAnnouncementIsDropped) {
  run([](svc::Shim& peer, CommId comm) {
    const gpu::DevicePtr buf = peer.alloc(kCount * sizeof(float));
    peer.send(comm, 0, buf, kCount, coll::DataType::kFloat32,
              peer.create_app_stream());
  });
}

TEST_F(MisuseFixture, StaleReconfigurationRoundIsRejected) {
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, app, gpus);
  const svc::CommStrategy strategy = fabric.strategy_of(comm);
  fabric.reconfigure(comm, strategy);
  fabric.loop().run();
  // Re-delivering round 1 by hand must be rejected as stale.
  EXPECT_THROW(fabric.proxy_for(GpuId{0}).request_reconfigure(
                   comm, 1, std::make_shared<const svc::CommStrategy>(strategy)),
               ContractViolation);
}

TEST_F(MisuseFixture, MalformedReconfigurationIsRejectedAtTheCall) {
  // A strategy no rank can execute is the provider's error and is reported
  // to the provider at the call. Left to the ranks, an empty channel list
  // throws out of every rank's barrier inside the event loop, and a ring
  // over too few ranks aborts the loop at the next launch, stopping every
  // tenant.
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  const svc::CommStrategy installed = fabric.strategy_of(comm);

  svc::CommStrategy no_channels = installed;
  no_channels.channel_orders.clear();
  EXPECT_THROW(fabric.reconfigure(comm, no_channels), ContractViolation);
  svc::CommStrategy short_ring = installed;
  short_ring.channel_orders = {coll::RingOrder::identity(gpus.size() - 1)};
  EXPECT_THROW(fabric.reconfigure(comm, short_ring), ContractViolation);

  EXPECT_NO_THROW(fabric.loop().run());
  EXPECT_TRUE(fabric.strategy_of(comm) == installed);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 256;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    for (auto& x : fabric.gpus().typed<float>(buf[r], count)) {
      x = static_cast<float>(r + 1);
    }
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                              coll::DataType::kFloat32, coll::ReduceOp::kSum,
                              *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    for (const float x : fabric.gpus().typed<float>(buf[r], count)) {
      ASSERT_EQ(x, 10.0f) << "rank " << r;
    }
  }

  // The rejected calls took no reconfiguration round: the next one applies.
  svc::CommStrategy reversed = installed;
  for (auto& o : reversed.channel_orders) o = o.reversed();
  fabric.reconfigure(comm, reversed);
  fabric.loop().run();
  EXPECT_TRUE(fabric.strategy_of(comm) == reversed);
}

TEST_F(MisuseFixture, GpuMemoryIsolationIsEnforced) {
  // Timing-only allocations refuse byte access (defence against benches
  // silently reading unmaterialized memory).
  svc::Fabric::Options options;
  options.gpu_config.materialize_memory = false;
  Fabric f2{cluster::make_testbed(), options};
  gpu::DevicePtr p = f2.gpus().gpu(GpuId{0}).allocate(64);
  EXPECT_THROW(f2.gpus().gpu(GpuId{0}).bytes(p, 64), ContractViolation);
  EXPECT_EQ(f2.gpus().gpu(GpuId{0}).mem_size(p.mem), 64u);
}

}  // namespace
}  // namespace mccs
