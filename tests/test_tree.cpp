// Tests of the binary-tree collective schedules (§5 extension) — both the
// abstract schedule properties and end-to-end numerical correctness through
// the MCCS service with a tree strategy installed.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "cluster/cluster.h"
#include "collectives/schedule.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using coll::ChannelSchedule;
using coll::CollectiveKind;
using coll::CommStep;

// --- schedule-level properties ---------------------------------------------------

/// Message-driven abstract execution over contribution ledgers (same idea as
/// the ring-schedule tests, generalised to arbitrary peers).
using Ledger = std::vector<std::map<int, int>>;  // per chunk: contributor->count

std::vector<Ledger> run_tree(int n, CollectiveKind kind, int root,
                             std::size_t chunks) {
  std::vector<ChannelSchedule> scheds(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    scheds[static_cast<std::size_t>(r)] =
        kind == CollectiveKind::kAllReduce
            ? coll::build_tree_allreduce_schedule(n, r, chunks)
            : coll::build_tree_broadcast_schedule(n, r, root, chunks);
  }
  std::vector<Ledger> state(static_cast<std::size_t>(n), Ledger(chunks));
  for (int r = 0; r < n; ++r) {
    if (kind == CollectiveKind::kAllReduce || r == root) {
      for (std::size_t c = 0; c < chunks; ++c) {
        state[static_cast<std::size_t>(r)][c][kind == CollectiveKind::kAllReduce
                                                  ? r
                                                  : root] = 1;
      }
    }
  }

  std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
  std::vector<bool> sent(static_cast<std::size_t>(n), false);
  std::vector<std::set<int>> arrived(static_cast<std::size_t>(n));
  bool progress = true;
  auto all_done = [&] {
    for (int r = 0; r < n; ++r) {
      if (cur[static_cast<std::size_t>(r)] <
          scheds[static_cast<std::size_t>(r)].steps.size())
        return false;
    }
    return true;
  };
  while (!all_done()) {
    EXPECT_TRUE(progress) << "tree schedule deadlocked";
    if (!progress) break;
    progress = false;
    for (int r = 0; r < n; ++r) {
      auto& c = cur[static_cast<std::size_t>(r)];
      const auto& steps = scheds[static_cast<std::size_t>(r)].steps;
      if (c >= steps.size()) continue;
      const CommStep& st = steps[c];
      if (st.has_send() && !sent[static_cast<std::size_t>(r)]) {
        // Locate the receiver's matching recv to learn reduce-vs-copy (the
        // executor resolves this from the receiver's recv_info).
        const auto& peer_steps = scheds[static_cast<std::size_t>(st.send_to)].steps;
        const CommStep* match = nullptr;
        for (const CommStep& ps : peer_steps) {
          if (ps.has_recv() && ps.recv_tag == st.send_tag) {
            match = &ps;
            break;
          }
        }
        EXPECT_NE(match, nullptr) << "unmatched send tag";
        if (match == nullptr) return state;
        EXPECT_EQ(match->recv_chunk, st.send_chunk);
        EXPECT_EQ(match->recv_from, r);
        auto& dst_chunk = state[static_cast<std::size_t>(st.send_to)][st.send_chunk];
        if (match->reduce) {
          for (auto& [who, cnt] : state[static_cast<std::size_t>(r)][st.send_chunk]) {
            dst_chunk[who] += cnt;
          }
        } else {
          dst_chunk = state[static_cast<std::size_t>(r)][st.send_chunk];
        }
        arrived[static_cast<std::size_t>(st.send_to)].insert(st.send_tag);
        sent[static_cast<std::size_t>(r)] = true;
        progress = true;
      }
      const bool send_ok = !st.has_send() || sent[static_cast<std::size_t>(r)];
      const bool recv_ok =
          !st.has_recv() || arrived[static_cast<std::size_t>(r)].count(st.recv_tag) > 0;
      if (send_ok && recv_ok) {
        ++c;
        sent[static_cast<std::size_t>(r)] = false;
        progress = true;
      }
    }
  }
  return state;
}

// gtest prints a parameter struct as its raw bytes and CTest names the case
// after that print, so `n` is 64-bit: an int would leave four padding bytes
// before `chunks`, and whatever the stack held there would enter the name.
struct TreeCase {
  std::int64_t n;
  std::size_t chunks;
};

class TreeScheduleP : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeScheduleP, AllReduceSumsEveryContributionExactlyOnce) {
  const int n = static_cast<int>(GetParam().n);
  const std::size_t chunks = GetParam().chunks;
  auto state = run_tree(n, CollectiveKind::kAllReduce, 0, chunks);
  for (int r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < chunks; ++c) {
      for (int who = 0; who < n; ++who) {
        ASSERT_EQ(state[static_cast<std::size_t>(r)][c][who], 1)
            << "rank " << r << " chunk " << c << " contributor " << who;
      }
    }
  }
}

TEST_P(TreeScheduleP, BroadcastDeliversRootEverywhere) {
  const int n = static_cast<int>(GetParam().n);
  const std::size_t chunks = GetParam().chunks;
  const int root = n / 3;
  auto state = run_tree(n, CollectiveKind::kBroadcast, root, chunks);
  for (int r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(state[static_cast<std::size_t>(r)][c][root], 1)
          << "rank " << r << " chunk " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeScheduleP,
                         ::testing::Values(TreeCase{2, 1}, TreeCase{3, 2},
                                           TreeCase{4, 4}, TreeCase{5, 3},
                                           TreeCase{8, 8}, TreeCase{16, 4},
                                           TreeCase{17, 5}));

TEST(TreeSchedule, DepthIsLogarithmic) {
  // A leaf's step count is O(chunks * log n), not O(chunks * n).
  const auto leaf = coll::build_tree_allreduce_schedule(64, 63, 4);
  EXPECT_LT(leaf.steps.size(), 4u * 2 * 8);
}

TEST(TreeSchedule, EdgesCoverEveryNonRootOnce) {
  const auto edges = coll::tree_edges(9, 2, CollectiveKind::kBroadcast);
  EXPECT_EQ(edges.size(), 8u);  // n-1 downward edges
  std::set<int> receivers;
  for (auto [src, dst] : edges) receivers.insert(dst);
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
