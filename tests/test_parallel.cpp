// Task-pool unit tests and the threads=1 vs threads=8 determinism
// regressions. The pool's contract (src/common/parallel.h) is that chunk
// boundaries depend only on (n, grain), so any layer that writes disjoint
// slots and combines serially must produce byte-identical output for every
// thread count. The tests here pin that end to end:
//
//   * pool mechanics — exact chunk coverage, inline single-thread path,
//     nested flattening, reconfiguration, a first dispatch after a re-shape
//     that reaches every worker, and exceptions forwarded to the caller;
//   * fabric — a two-tenant AllReduce workload's telemetry_snapshot()
//     (virtual time, metrics, link/flow state) is string-equal.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/types.h"
#include "common/parallel.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using coll::DataType;
using coll::ReduceOp;

/// Restores the pool to its environment-derived shape on scope exit, so a
/// failing test can't leak an odd thread count into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_threads(0); }
};

// --- pool mechanics ---------------------------------------------------------

TEST(ParallelPool, ChunkBoundariesDependOnlyOnGrainAndCoverExactlyOnce) {
  ThreadCountGuard guard;
  for (const int threads : {1, 2, 8}) {
    par::set_threads(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      for (const std::size_t grain : {std::size_t{1}, std::size_t{16},
                                      std::size_t{4096}}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        par::parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
          {
            std::lock_guard<std::mutex> lk(mu);
            chunks.emplace_back(begin, end);
          }
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "n=" << n << " grain=" << grain << " threads=" << threads;
        }
        for (const auto& [begin, end] : chunks) {
          // Boundaries are exact grain multiples (last chunk may be short).
          EXPECT_EQ(begin % grain, 0u);
          EXPECT_TRUE(end - begin == grain || end == n);
        }
        const std::size_t expect_chunks = n == 0 ? 0 : (n + grain - 1) / grain;
        EXPECT_EQ(chunks.size(), expect_chunks);
      }
    }
  }
}

TEST(ParallelPool, SingleThreadRunsInlineOnCaller) {
  ThreadCountGuard guard;
  par::set_threads(1);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  par::parallel_for(100, 10, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;  // safe: inline path is strictly sequential
  });
  EXPECT_EQ(calls, 10);
}

TEST(ParallelPool, NestedParallelForFlattensInline) {
  ThreadCountGuard guard;
  par::set_threads(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  par::parallel_for(8, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      const auto me = std::this_thread::get_id();
      // The nested region must run inline on the issuing worker: same
      // thread, full coverage, no deadlock against the single live job.
      par::parallel_for(8, 2, [&](std::size_t ib, std::size_t ie) {
        EXPECT_EQ(std::this_thread::get_id(), me);
        for (std::size_t i = ib; i < ie; ++i) hits[o * 8 + i].fetch_add(1);
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelPool, SetThreadsReconfiguresBetweenRegions) {
  ThreadCountGuard guard;
  for (const int t : {4, 1, 2}) {
    par::set_threads(t);
    EXPECT_EQ(par::thread_count(), t);
    std::vector<std::atomic<int>> hits(128);
    for (auto& h : hits) h.store(0);
    par::parallel_for(hits.size(), 8, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "threads=" << t;
  }
}

TEST(ParallelPool, DefaultPoolReshapeAndRestore) {
  ThreadCountGuard guard;
  par::set_threads(3);
  EXPECT_EQ(par::thread_count(), 3);
  std::atomic<int> total{0};
  par::parallel_for(100, 7, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 100);
  par::set_threads(0);  // back to MCCS_THREADS / hardware default
  EXPECT_GE(par::thread_count(), 1);
}

TEST(ParallelPool, FirstDispatchAfterReshapeReachesEveryWorker) {
  // Workers start lazily inside the dispatch that needs them. One that the
  // OS schedules only after that dispatch was published must still run it,
  // or the job silently loses width. Four chunks that each wait until all
  // four have started can only all see the full count if all three workers
  // plus the caller join the very first job.
  ThreadCountGuard guard;
  par::set_threads(4);
  std::atomic<int> started{0};
  std::atomic<int> saw_all{0};
  par::parallel_for(4, 1, [&](std::size_t, std::size_t) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (started.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == 4) saw_all.fetch_add(1);
  });
  EXPECT_EQ(saw_all.load(), 4);
}

TEST(ParallelPool, ChunkExceptionReachesCallerAfterJobDrains) {
  // A chunk that throws — on a worker or on the caller — must not unwind the
  // caller while other threads still run chunks of the job on its stack:
  // every chunk retires, then the caller rethrows, and the pool stays usable.
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    par::set_threads(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(par::parallel_for(8, 1,
                                   [&](std::size_t begin, std::size_t) {
                                     if (begin == 3) {
                                       throw std::runtime_error("chunk 3");
                                     }
                                     ran.fetch_add(1);
                                   }),
                 std::runtime_error);
    if (threads > 1) {
      EXPECT_EQ(ran.load(), 7);  // the inline path stops at the throw
    }
    std::atomic<int> total{0};
    par::parallel_for(64, 4, [&](std::size_t begin, std::size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(total.load(), 64) << "threads=" << threads;
  }
}

// --- determinism regression: fabric telemetry -------------------------------

/// A small two-tenant AllReduce workload; returns the fabric's telemetry
/// snapshot (virtual time, metrics registry, link/flow state) after the loop
/// drains. Everything in the snapshot is virtual-time-derived, so it must be
/// identical for every thread count.
std::string fabric_snapshot_after_workload() {
  svc::Fabric fabric{cluster::make_testbed()};
  const AppId app_a{1}, app_b{2};
  const std::vector<GpuId> gpus_a{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const std::vector<GpuId> gpus_b{GpuId{1}, GpuId{3}, GpuId{5}, GpuId{7}};
  const CommId comm_a = test::create_comm(fabric, app_a, gpus_a);
  const CommId comm_b = test::create_comm(fabric, app_b, gpus_b);
  auto ranks_a = test::make_ranks(fabric, app_a, gpus_a);
  auto ranks_b = test::make_ranks(fabric, app_b, gpus_b);
  const std::size_t count = 1u << 18;  // 1 MiB of float32 per rank

  std::vector<gpu::DevicePtr> buf_a(4), buf_b(4);
  for (std::size_t r = 0; r < 4; ++r) {
    buf_a[r] = ranks_a[r].shim->alloc(count * sizeof(float));
    buf_b[r] = ranks_b[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf_a[r], count, static_cast<int>(r));
    test::fill_pattern<float>(fabric, buf_b[r], count, static_cast<int>(r), 7);
  }
  int remaining = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t r = 0; r < 4; ++r) {
      remaining += 2;
      ranks_a[r].shim->all_reduce(comm_a, buf_a[r], buf_a[r], count,
                                  DataType::kFloat32, ReduceOp::kSum,
                                  *ranks_a[r].stream,
                                  [&remaining](Time) { --remaining; });
      ranks_b[r].shim->all_reduce(comm_b, buf_b[r], buf_b[r], count,
                                  DataType::kFloat32, ReduceOp::kMax,
                                  *ranks_b[r].stream,
                                  [&remaining](Time) { --remaining; });
    }
    const bool ok = test::await(fabric, remaining);
    EXPECT_TRUE(ok);
    if (!ok) break;
  }
  fabric.loop().run();
  return fabric.telemetry_snapshot();
}

TEST(ParallelDeterminism, FabricTelemetrySnapshotIdenticalThreads1Vs8) {
  ThreadCountGuard guard;
  par::set_threads(1);
  const std::string one = fabric_snapshot_after_workload();
  par::set_threads(8);
  const std::string eight = fabric_snapshot_after_workload();
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

}  // namespace
}  // namespace mccs
