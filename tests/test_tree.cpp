// Tests of the binary-tree collective schedules (§5 extension): the
// schedule's depth and edges, and end-to-end numerical correctness through
// the MCCS service with a tree strategy installed. The abstract ledger
// execution of every tree lowering is test_compiler.cpp's compiled sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

#include "cluster/cluster.h"
#include "collectives/compiler.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using coll::CollectiveKind;

// --- schedule shape ----------------------------------------------------------------

/// Rank `rank`'s compiled tree schedule of `kind` over `nranks` ranks.
coll::ChannelSchedule tree_schedule(CollectiveKind kind, int nranks, int rank,
                                    int root, std::size_t chunks) {
  const coll::RingOrder order = coll::RingOrder::identity(nranks);
  coll::CompileInput in;
  in.kind = kind;
  in.algorithm = coll::Algorithm::kTree;
  in.nranks = nranks;
  in.rank = rank;
  in.root = root;
  in.order = &order;
  in.tree_chunks = chunks;
  return coll::compile_collective(in);
}

TEST(TreeSchedule, DepthIsLogarithmic) {
  // A leaf's step count is O(chunks * log n), not O(chunks * n).
  const coll::ChannelSchedule leaf =
      tree_schedule(CollectiveKind::kAllReduce, 64, 63, 0, 4);
  EXPECT_LT(leaf.steps.size(), 4u * 2 * 8);
}

TEST(TreeSchedule, EdgesCoverEveryNonRootOnce) {
  // A one-chunk tree Broadcast receives once at every rank but the root,
  // each over its own parent edge.
  std::set<std::pair<int, int>> edges;
  std::set<int> receivers;
  for (int rank = 0; rank < 9; ++rank) {
    for (const coll::CommStep& st :
         tree_schedule(CollectiveKind::kBroadcast, 9, rank, 2, 1).steps) {
      if (!st.has_recv()) continue;
      edges.insert({st.recv_from, rank});
      receivers.insert(rank);
    }
  }
  EXPECT_EQ(edges.size(), 8u);  // n-1 downward edges
  EXPECT_EQ(receivers.size(), 8u);
  EXPECT_EQ(receivers.count(2), 0u);  // root receives nothing
}

// --- end-to-end through the MCCS service -----------------------------------------

svc::CommStrategy tree_strategy(const std::vector<GpuId>& gpus,
                                const cluster::Cluster& cl,
                                std::size_t chunks) {
  svc::CommStrategy s = svc::nccl_default_strategy(gpus, cl);
  s.algorithm = coll::Algorithm::kTree;
  s.tree_pipeline_chunks = chunks;
  return s;
}

class TreeServiceP : public ::testing::TestWithParam<int> {};

TEST_P(TreeServiceP, AllReduceNumericallyCorrect) {
  const int n = GetParam();
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return tree_strategy(info.gpus, fabric.cluster(), 4);
  });
  AppId app{1};
  std::vector<GpuId> gpus;
  for (int r = 0; r < n; ++r) gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 999;  // not divisible by chunks or channels
  std::vector<gpu::DevicePtr> buf(gpus.size());
  std::vector<float> expected(count, 0.0f);
  for (int r = 0; r < n; ++r) {
    buf[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[static_cast<std::size_t>(r)], count, r);
    auto s = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_reduce(comm, buf[static_cast<std::size_t>(r)],
                        buf[static_cast<std::size_t>(r)], count,
                        coll::DataType::kFloat32, coll::ReduceOp::kSum,
                        *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], expected[i]) << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeServiceP, ::testing::Values(2, 3, 5, 8));

TEST(TreeService, BroadcastFromNonZeroRoot) {
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return tree_strategy(info.gpus, fabric.cluster(), 3);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 500;
  const int root = 3;
  std::vector<gpu::DevicePtr> buf(4);
  for (int r = 0; r < 4; ++r) {
    buf[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[static_cast<std::size_t>(r)], count, r);
  }
  std::vector<float> root_data;
  {
    auto s = fabric.gpus().typed<float>(buf[root], count);
    root_data.assign(s.begin(), s.end());
  }
  int remaining = 4;
  for (int r = 0; r < 4; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->broadcast(comm, buf[static_cast<std::size_t>(r)],
                       buf[static_cast<std::size_t>(r)], count,
                       coll::DataType::kFloat32, root, *rk.stream,
                       [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < 4; ++r) {
    auto out = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], root_data[i]);
  }
}

TEST(TreeService, AllGatherFallsBackToRing) {
  // Tree strategies execute AllGather on rings; the result must be correct.
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return tree_strategy(info.gpus, fabric.cluster(), 4);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 64;
  std::vector<gpu::DevicePtr> send(3), recv(3);
  int remaining = 3;
  for (int r = 0; r < 3; ++r) {
    send[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    recv[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(3 * count * sizeof(float));
    test::fill_pattern<float>(fabric, send[static_cast<std::size_t>(r)], count, r);
  }
  for (int r = 0; r < 3; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_gather(comm, send[static_cast<std::size_t>(r)],
                        recv[static_cast<std::size_t>(r)], count,
                        coll::DataType::kFloat32, *rk.stream,
                        [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < 3; ++r) {
    auto out = fabric.gpus().typed<float>(recv[static_cast<std::size_t>(r)], 3 * count);
    for (int src = 0; src < 3; ++src) {
      auto in = fabric.gpus().typed<float>(send[static_cast<std::size_t>(src)], count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(src) * count + i], in[i]);
      }
    }
  }
}

}  // namespace
}  // namespace mccs
