// Task-pool microbenchmarks: what the deterministic parallel core costs and
// what it buys, across MCCS_THREADS-style thread counts in one process.
//
// Sections (one JSON line each to BENCH_parallel.json):
//
//   dispatch        — pool fork-join overhead: an empty-body parallel_for
//                     per thread count, ns per dispatch. threads=1 is the
//                     inline path (no pool).
//   seed_sweep      — independent randomized churn seeds fanned out with
//                     parallel_for (the property-test / chaos-sweep shape);
//                     median wall time of kSweepReps repetitions.
//
// Every line carries "cores" (hardware_concurrency): on a machine with >= 4
// cores scripts/check.sh requires >= 2x at 4 threads on seed_sweep; on
// smaller machines the lines are recorded but the speedup gate is skipped
// (a 1-core container cannot speed anything up).
//
// Determinism note: the simulated results of every section are independent
// of the thread count (that is the pool's contract, enforced by
// tests/test_parallel.cpp); only the wall-clock changes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "sim/event_loop.h"

namespace {

using namespace mccs;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> thread_sweep() {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> sweep{1, 2, 4, hw};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  return sweep;
}

// --- dispatch overhead ------------------------------------------------------

double dispatch_ns(int threads) {
  par::set_threads(threads);
  volatile std::size_t sink = 0;
  // Warm the pool (first dispatch spawns workers).
  par::parallel_for(16, 1, [&](std::size_t b, std::size_t) { sink = sink + b; });
  constexpr int kIters = 20000;
  const double t0 = now_s();
  for (int i = 0; i < kIters; ++i) {
    par::parallel_for(16, 1, [&](std::size_t b, std::size_t) { sink = sink + b; });
  }
  const double t1 = now_s();
  return (t1 - t0) / kIters * 1e9;
}

// --- parallel seed sweep ----------------------------------------------------

/// One independent churn seed on the testbed (the property-test shape: own
/// loop, own network, nothing shared).
void run_sweep_seed(const cluster::Cluster& cl, std::uint64_t seed) {
  sim::EventLoop loop;
  net::Network net(loop, cl.topology());
  Rng rng(seed);
  const auto hosts = cl.topology().hosts();
  for (int i = 0; i < 40; ++i) {
    loop.schedule_at(rng.uniform() * 0.04, [&] {
      const NodeId src = hosts[rng.below(hosts.size())];
      NodeId dst = hosts[rng.below(hosts.size())];
      if (dst == src) dst = hosts[(dst.get() + 1) % hosts.size()];
      net::FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = 1 + rng.below(120'000'000);
      spec.ecmp_key = rng.engine()();
      spec.on_complete = {};
      net.start_flow(std::move(spec));
    });
  }
  loop.run();
}

// One serial repetition takes over 100 ms on a 4-core host, so thread
// start-up and scheduling noise stay small against the fan-out it measures.
constexpr std::size_t kSweepSeeds = 384;
constexpr int kSweepReps = 5;

/// Median wall time of kSweepReps sweeps over kSweepSeeds seeds.
double run_seed_sweep(const cluster::Cluster& cl, int threads) {
  par::set_threads(threads);
  std::vector<double> walls;
  for (int rep = 0; rep < kSweepReps; ++rep) {
    const double t0 = now_s();
    par::parallel_for(kSweepSeeds, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        run_sweep_seed(cl, 0x5EED + s);
      }
    });
    walls.push_back(now_s() - t0);
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

}  // namespace

int main() {
  std::printf("=== micro_parallel: task pool overhead and scaling ===\n\n");
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const std::vector<int> sweep = thread_sweep();

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  MCCS_CHECK(json != nullptr, "cannot open BENCH_parallel.json");
  std::printf("cores detected: %d\n\n", cores);

  // Dispatch overhead.
  std::printf("%-18s %8s %14s\n", "section", "threads", "ns/dispatch");
  for (const int t : sweep) {
    const double ns = dispatch_ns(t);
    std::printf("%-18s %8d %14.0f\n", "dispatch", t, ns);
    std::fprintf(json,
                 "{\"bench\":\"micro_parallel\",\"section\":\"dispatch\","
                 "\"threads\":%d,\"cores\":%d,\"ns_per_dispatch\":%.1f}\n",
                 t, cores, ns);
  }
  std::printf("\n");

  // Seed-sweep scaling (property-test / chaos shape).
  std::printf("%-18s %8s %9s %9s\n", "section", "threads", "wall_s",
              "speedup");
  const auto testbed = cluster::make_testbed();
  double sweep_base = 0.0;
  for (const int t : sweep) {
    const double wall = run_seed_sweep(testbed, t);
    if (t == 1) sweep_base = wall;
    const double speedup = sweep_base / wall;
    std::printf("%-18s %8d %9.3f %8.2fx\n", "seed_sweep", t, wall, speedup);
    std::fprintf(json,
                 "{\"bench\":\"micro_parallel\",\"section\":\"seed_sweep\","
                 "\"threads\":%d,\"cores\":%d,\"seeds\":%zu,\"reps\":%d,"
                 "\"wall_s\":%.6f,\"speedup_vs_1thread\":%.3f}\n",
                 t, cores, kSweepSeeds, kSweepReps, wall, speedup);
  }

  par::set_threads(0);
  std::fclose(json);
  std::printf("\nBENCH_parallel.json written (one line per section x thread "
              "count).\n");
  return 0;
}
