// Tests of the per-rank buffer table (rank_buffers in mccs/api.h), which the
// frontend validates and the proxy stages from: every byte range a compiled
// plan touches lies inside the extent the table gives its buffer, a root
// buffer too short for the table or a buffer on another GPU of the host is
// refused at the frontend before any flow starts, and a one-rank collective
// is exactly its local copy.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/compiler.h"
#include "helpers.h"
#include "mccs/coll_plan.h"
#include "mccs/fabric.h"
#include "mccs/strategy.h"

namespace mccs {
namespace {

using coll::CollectiveKind;
using coll::DataType;
using svc::RankBuffer;
using svc::RankBuffers;

constexpr CollectiveKind kAllKinds[] = {
    CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
    CollectiveKind::kReduceScatter, CollectiveKind::kBroadcast,
    CollectiveKind::kReduce, CollectiveKind::kAllToAll,
    CollectiveKind::kGather, CollectiveKind::kScatter};

Bytes extent(const RankBuffers& b, RankBuffer buffer) {
  switch (buffer) {
    case RankBuffer::kSend: return b.send;
    case RankBuffer::kRecv: return b.recv;
    case RankBuffer::kScratch: return b.scratch;
  }
  return 0;
}

/// An empty range addresses nothing; any other must end inside `limit`.
bool inside(Bytes offset, Bytes len, Bytes limit) {
  return len == 0 || offset + len <= limit;
}

TEST(RankBuffersProperty, EveryPlanRangeLiesInsideItsBuffer) {
  const cluster::Cluster cl = cluster::make_testbed();
  svc::CollectiveArgs args;
  args.send = gpu::DevicePtr{GpuId{0}, MemId{1}, 0};
  args.recv = gpu::DevicePtr{GpuId{0}, MemId{2}, 0};
  args.dtype = DataType::kFloat32;
  int plans = 0;
  for (const CollectiveKind kind : kAllKinds) {
    args.kind = kind;
    for (const int n : {1, 2, 3, 5, 8}) {
      std::vector<GpuId> gpus;
      std::vector<int> base;
      for (int r = 0; r < n; ++r) {
        gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
        base.push_back(n - 1 - r);
      }
      for (const int root : {0, n - 1}) {
        args.root = root;
        // An odd count leaves uneven channel stripes; one element leaves
        // some stripes empty.
        for (const std::size_t count : {std::size_t{37}, std::size_t{1}}) {
          args.count = count;
          for (int rank = 0; rank < n; ++rank) {
            SCOPED_TRACE(::testing::Message()
                         << coll::kind_name(kind) << " n=" << n << " root="
                         << root << " count=" << count << " rank=" << rank);
            const RankBuffers b = svc::rank_buffers(args, n, rank);
            ASSERT_TRUE(inside(b.copy.from, b.copy.len, b.send));
            ASSERT_TRUE(inside(b.copy.to, b.copy.len, extent(b, b.copy.into)));
            if (n == 1) {
              // The local copy is the whole collective: all of recv.
              ASSERT_EQ(b.copy.len, b.recv);
              continue;
            }
            svc::CommInfo info;
            info.id = CommId{1};
            info.app = AppId{1};
            info.nranks = n;
            info.gpus = gpus;
            const svc::CommSetup setup{
                std::make_shared<const svc::CommInfo>(info), rank};
            for (const coll::Algorithm algo :
                 coll::selectable_algorithms(kind)) {
              for (const int channels : {1, 2}) {
                svc::CommStrategy strategy;
                strategy.algorithm = algo;
                strategy.tree_pipeline_chunks = 3;
                strategy.channel_orders =
                    svc::make_channel_orders(base, gpus, cl, channels);
                const auto plan = svc::build_coll_plan(
                    setup, strategy, kind, count, args.dtype, root);
                ++plans;
                for (const auto& ch : plan->channels) {
                  for (const auto& step : ch.steps) {
                    if (!step.has_send()) continue;
                    ASSERT_TRUE(inside(step.send_range.offset,
                                       step.send_range.len,
                                       extent(b, b.read)))
                        << coll::algorithm_name(algo) << " send";
                  }
                  for (const auto& slot : ch.recv_slots) {
                    ASSERT_TRUE(inside(slot.range.offset, slot.range.len,
                                       extent(b, b.work)))
                        << coll::algorithm_name(algo) << " recv";
                  }
                  ASSERT_TRUE(
                      inside(ch.rs_src.offset, ch.rs_src.len, extent(b, b.work)));
                  ASSERT_TRUE(inside(ch.rs_dst.offset, ch.rs_dst.len, b.recv));
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(plans, 0);
}

// --- the table at the service boundary -----------------------------------------

/// The message of the ContractViolation `fn` throws, or "" if it returns.
std::string violation_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return {};
}

struct RootedCase {
  CollectiveKind kind;
  bool move_data;
};

std::string case_name(const RootedCase& c) {
  return std::string(coll::kind_name(c.kind)) +
         (c.move_data ? "Data" : "TimingOnly");
}

/// Printed without the struct's padding bytes, so test names stay stable.
void PrintTo(const RootedCase& c, std::ostream* os) { *os << case_name(c); }

svc::Fabric::Options options(bool move_data) {
  svc::Fabric::Options o;
  o.config.move_data = move_data;
  o.gpu_config.materialize_memory = move_data;
  return o;
}

/// Run the loop, which must stop at the frontend's refusal of a buffer
/// before any flow starts or any proxy issues.
void expect_refused_at_frontend(svc::Fabric& fabric) {
  const std::uint64_t solves = fabric.network().solves_total();
  const std::string what = violation_of([&fabric] { fabric.loop().run(); });
  EXPECT_NE(what.find("is not a valid tenant allocation"), std::string::npos)
      << what;
  EXPECT_EQ(fabric.network().solves_total(), solves) << "a flow started";
  EXPECT_EQ(fabric.network().active_flow_count(), 0u);
  EXPECT_TRUE(fabric.trace_all().empty()) << "a proxy issued the collective";
}

class RootBufferP : public ::testing::TestWithParam<RootedCase> {
 protected:
  static constexpr int kRoot = 2;
  static constexpr std::size_t kCount = 53;
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};

  /// Issue one Gather or Scatter over `gpus` whose root buffer (Gather's
  /// recv, Scatter's send) holds `root_blocks` blocks; every other buffer
  /// is one block. Returns the per-rank (send, recv) buffers.
  std::vector<std::pair<gpu::DevicePtr, gpu::DevicePtr>> issue(
      svc::Fabric& fabric, std::size_t root_blocks, int& remaining) {
    const RootedCase c = GetParam();
    const CommId comm = test::create_comm(fabric, AppId{1}, gpus);
    auto ranks = test::make_ranks(fabric, AppId{1}, gpus);
    const Bytes block = kCount * sizeof(float);
    std::vector<std::pair<gpu::DevicePtr, gpu::DevicePtr>> bufs;
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      const bool root = static_cast<int>(r) == kRoot;
      const bool gather = c.kind == CollectiveKind::kGather;
      const Bytes send_bytes = root && !gather ? root_blocks * block : block;
      const Bytes recv_bytes = root && gather ? root_blocks * block : block;
      bufs.emplace_back(ranks[r].shim->alloc(send_bytes),
                        ranks[r].shim->alloc(recv_bytes));
      if (c.move_data) {
        auto s = fabric.gpus().typed<float>(bufs[r].first, send_bytes / sizeof(float));
        for (std::size_t i = 0; i < s.size(); ++i) {
          s[i] = static_cast<float>(r * 100000 + i);
        }
      }
    }
    remaining = static_cast<int>(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      const auto [send, recv] = bufs[r];
      auto cb = [&remaining](Time) { --remaining; };
      if (c.kind == CollectiveKind::kGather) {
        ranks[r].shim->gather(comm, send, recv, kCount, DataType::kFloat32,
                              kRoot, *ranks[r].stream, cb);
      } else {
        ranks[r].shim->scatter(comm, send, recv, kCount, DataType::kFloat32,
                               kRoot, *ranks[r].stream, cb);
      }
    }
    return bufs;
  }
};

TEST_P(RootBufferP, RootBufferOneBlockShortIsRefusedAtTheFrontend) {
  svc::Fabric fabric{cluster::make_testbed(), options(GetParam().move_data)};
  int remaining = 0;
  (void)issue(fabric, gpus.size() - 1, remaining);
  expect_refused_at_frontend(fabric);
}

TEST_P(RootBufferP, ExactRootBufferMovesEveryBlock) {
  const RootedCase c = GetParam();
  svc::Fabric fabric{cluster::make_testbed(), options(c.move_data)};
  int remaining = 0;
  const auto bufs = issue(fabric, gpus.size(), remaining);
  const std::uint64_t solves = fabric.network().solves_total();
  ASSERT_TRUE(test::await(fabric, remaining));
  EXPECT_GT(fabric.network().solves_total(), solves);
  if (!c.move_data) return;
  const auto& root = bufs[static_cast<std::size_t>(kRoot)];
  const std::size_t n = gpus.size();
  for (std::size_t r = 0; r < n; ++r) {
    // Gather: rank r's send is block r of the root's recv. Scatter: block r
    // of the root's send is rank r's recv.
    const bool gather = c.kind == CollectiveKind::kGather;
    auto all = fabric.gpus().typed<float>(gather ? root.second : root.first,
                                          n * kCount);
    auto one = fabric.gpus().typed<float>(gather ? bufs[r].first : bufs[r].second,
                                          kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(all[r * kCount + i], one[i]) << "block " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RootBufferP,
    ::testing::Values(RootedCase{CollectiveKind::kGather, true},
                      RootedCase{CollectiveKind::kGather, false},
                      RootedCase{CollectiveKind::kScatter, true},
                      RootedCase{CollectiveKind::kScatter, false}),
    [](const ::testing::TestParamInfo<RootedCase>& info) {
      return case_name(info.param);
    });

struct ForeignGpuCase {
  bool p2p;
  bool move_data;
};

std::string case_name(const ForeignGpuCase& c) {
  return std::string(c.p2p ? "Send" : "AllReduce") +
         (c.move_data ? "Data" : "TimingOnly");
}

void PrintTo(const ForeignGpuCase& c, std::ostream* os) { *os << case_name(c); }

class ForeignGpuBufferP : public ::testing::TestWithParam<ForeignGpuCase> {};

TEST_P(ForeignGpuBufferP, BufferOnAnotherGpuOfTheHostIsRefusedAtTheFrontend) {
  // GPUs 0 and 1 share a host, so one frontend holds app 1's allocations on
  // both. Rank 0 runs on GPU 0 but names a buffer app 1 allocated on GPU 1:
  // the proxy could not read it, so the frontend refuses it.
  const ForeignGpuCase c = GetParam();
  svc::Fabric fabric{cluster::make_testbed(), options(c.move_data)};
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 64;
  const gpu::DevicePtr foreign =
      fabric.connect(app, GpuId{1}).alloc(count * sizeof(float));
  const gpu::DevicePtr own = ranks[1].shim->alloc(count * sizeof(float));
  if (c.p2p) {
    ranks[0].shim->send(comm, 1, foreign, count, DataType::kFloat32,
                        *ranks[0].stream);
    ranks[1].shim->recv(comm, 0, own, count, DataType::kFloat32,
                        *ranks[1].stream);
  } else {
    ranks[0].shim->all_reduce(comm, foreign, foreign, count, DataType::kFloat32,
                              coll::ReduceOp::kSum, *ranks[0].stream);
    ranks[1].shim->all_reduce(comm, own, own, count, DataType::kFloat32,
                              coll::ReduceOp::kSum, *ranks[1].stream);
  }
  expect_refused_at_frontend(fabric);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ForeignGpuBufferP,
    ::testing::Values(ForeignGpuCase{false, true}, ForeignGpuCase{false, false},
                      ForeignGpuCase{true, true}, ForeignGpuCase{true, false}),
    [](const ::testing::TestParamInfo<ForeignGpuCase>& info) {
      return case_name(info.param);
    });

TEST(RankBuffersService, SingleRankCollectiveIsItsLocalCopy) {
  // With one rank every kind leaves recv equal to send, ReduceScatter too:
  // its reduction over one rank is the copy, with no scratch to finalize.
  svc::Fabric fabric{cluster::make_testbed()};
  const std::vector<GpuId> gpus{GpuId{5}};
  const CommId comm = test::create_comm(fabric, AppId{1}, gpus);
  auto ranks = test::make_ranks(fabric, AppId{1}, gpus);
  const std::size_t count = 29;
  for (const CollectiveKind kind : kAllKinds) {
    SCOPED_TRACE(coll::kind_name(kind));
    const gpu::DevicePtr send = ranks[0].shim->alloc(count * sizeof(float));
    const gpu::DevicePtr recv = ranks[0].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, send, count, 3);
    for (float& x : fabric.gpus().typed<float>(recv, count)) x = -1.0f;
    svc::CollectiveArgs args;
    args.kind = kind;
    args.send = send;
    args.recv = recv;
    args.count = count;
    int remaining = 1;
    ranks[0].shim->collective(comm, args, *ranks[0].stream,
                              [&remaining](Time) { --remaining; });
    ASSERT_TRUE(test::await(fabric, remaining));
    auto in = fabric.gpus().typed<float>(send, count);
    auto out = fabric.gpus().typed<float>(recv, count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(out[i], in[i]) << i;
  }
}

}  // namespace
}  // namespace mccs
