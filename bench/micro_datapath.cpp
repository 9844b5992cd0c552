// Microbenchmark: service datapath host-side fast path.
//
// Three sections, one JSON line per record to BENCH_datapath.json:
//
//  * plan   — ns to obtain a collective execution plan, cold (build_coll_plan
//             from scratch, what a launch pays on a cache miss) vs warm
//             (CollPlanCache hit). The check.sh gate requires warm to be
//             >= 3x faster.
//  * reduce — GB/s of coll::reduce_bytes (op-specialized restrict-pointer
//             loops, -O3) vs coll::reduce_bytes_reference (the pinned scalar
//             oracle), timed in interleaved rounds; `speedup` is the median
//             of the per-round ratios. The gate requires >= 2x on kFloat32
//             sum.
//  * e2e    — host wall ns per collective launch through the full fabric
//             (shim -> frontend -> proxy), plus the plan-cache hit rate.
//             Informational.
//
// Everything here measures host CPU cost only; the simulated latencies the
// figure benches report are unaffected by any of it.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/types.h"
#include "common.h"
#include "common/stats.h"
#include "mccs/coll_plan.h"
#include "mccs/fabric.h"
#include "mccs/proxy_engine.h"
#include "mccs/strategy.h"

namespace {

using namespace mccs;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- section 1: plan construction, cold vs warm ------------------------------

struct PlanShape {
  coll::CollectiveKind kind;
  std::size_t count;
  int root;
};

void bench_plans(std::FILE* json) {
  const cluster::Cluster cl = cluster::make_testbed();
  // One rank per host (the cross-rack testbed communicator the tests use).
  svc::CommInfo info;
  info.id = CommId{0};
  info.app = AppId{1};
  info.nranks = 4;
  info.gpus = {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const svc::CommSetup setup{std::make_shared<const svc::CommInfo>(info), 0};
  const auto strategy = std::make_shared<const svc::CommStrategy>(
      svc::nccl_default_strategy(info.gpus, cl));

  const std::vector<PlanShape> shapes = {
      {coll::CollectiveKind::kAllReduce, 262144, 0},
      {coll::CollectiveKind::kAllGather, 65536, 0},
      {coll::CollectiveKind::kReduceScatter, 65536, 0},
      {coll::CollectiveKind::kAllToAll, 65536, 0},
      {coll::CollectiveKind::kBroadcast, 262144, 0},
  };

  std::printf("%-16s %12s %12s %9s\n", "plan shape", "cold(ns)", "warm(ns)",
              "speedup");
  for (const PlanShape& s : shapes) {
    constexpr int kColdIters = 20000;
    constexpr int kWarmIters = 200000;
    const auto dtype = coll::DataType::kFloat32;

    auto t0 = Clock::now();
    for (int i = 0; i < kColdIters; ++i) {
      auto plan = svc::build_coll_plan(setup, *strategy, s.kind, s.count,
                                       dtype, s.root);
      MCCS_CHECK(plan != nullptr, "plan build failed");
    }
    const double cold_ns = seconds_since(t0) * 1e9 / kColdIters;

    telemetry::Counter hits, misses, invalidations;
    svc::CollPlanCache cache{{hits, misses, invalidations}};
    (void)cache.acquire(setup, strategy, s.kind, s.count, dtype,
                        s.root);  // prime
    t0 = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      auto plan = cache.acquire(setup, strategy, s.kind, s.count, dtype,
                                s.root);
      MCCS_CHECK(plan != nullptr, "plan acquire failed");
    }
    const double warm_ns = seconds_since(t0) * 1e9 / kWarmIters;
    MCCS_CHECK(cache.stats().hits >= kWarmIters, "warm loop did not hit");

    const double speedup = cold_ns / warm_ns;
    const std::string name = coll::to_string(s.kind);
    std::printf("%-16s %12.1f %12.1f %8.1fx\n", name.c_str(), cold_ns, warm_ns,
                speedup);
    std::fprintf(json,
                 "{\"bench\":\"micro_datapath\",\"section\":\"plan\","
                 "\"kind\":\"%s\",\"count\":%zu,\"channels\":%d,"
                 "\"cold_ns\":%.1f,\"warm_ns\":%.1f,\"speedup\":%.3f}\n",
                 name.c_str(), s.count, strategy->num_channels(), cold_ns,
                 warm_ns, speedup);
  }
}

// --- section 2: reduce_bytes, vectorized vs scalar reference -----------------

const char* dtype_name(coll::DataType t) {
  switch (t) {
    case coll::DataType::kFloat32: return "f32";
    case coll::DataType::kFloat64: return "f64";
    case coll::DataType::kInt32: return "i32";
    case coll::DataType::kInt64: return "i64";
    case coll::DataType::kUint8: return "u8";
  }
  return "?";
}

const char* op_name(coll::ReduceOp op) {
  switch (op) {
    case coll::ReduceOp::kSum: return "sum";
    case coll::ReduceOp::kProd: return "prod";
    case coll::ReduceOp::kMin: return "min";
    case coll::ReduceOp::kMax: return "max";
  }
  return "?";
}

void bench_reduce_case(std::FILE* json, coll::DataType dtype,
                       coll::ReduceOp op) {
  // L2-resident working set: the proxy reduces chunk-sized pieces, and the
  // compute-vs-memory balance at this size is where vectorization shows.
  constexpr std::size_t kBytes = 256 * 1024;
  // Scalar and vector alternate round by round, so a busy spell on the host
  // slows a round or two of either side rather than one whole side of the
  // gated ratio.
  constexpr int kRounds = 9;
  constexpr int kItersPerRound = 500;
  std::vector<std::byte> acc(kBytes), in(kBytes);
  // Fill both operands with the value 1 of the benched type: sum grows
  // linearly over a round, prod stays at 1, min/max are stable — no overflow
  // and no denormals for any dtype/op combination.
  const auto fill_ones = [kBytes](std::byte* p, coll::DataType t) {
    const std::size_t n = kBytes / dtype_size(t);
    switch (t) {
      case coll::DataType::kFloat32: {
        auto* v = reinterpret_cast<float*>(p);
        for (std::size_t i = 0; i < n; ++i) v[i] = 1.0f;
        break;
      }
      case coll::DataType::kFloat64: {
        auto* v = reinterpret_cast<double*>(p);
        for (std::size_t i = 0; i < n; ++i) v[i] = 1.0;
        break;
      }
      case coll::DataType::kInt32: {
        auto* v = reinterpret_cast<std::int32_t*>(p);
        for (std::size_t i = 0; i < n; ++i) v[i] = 1;
        break;
      }
      case coll::DataType::kInt64: {
        auto* v = reinterpret_cast<std::int64_t*>(p);
        for (std::size_t i = 0; i < n; ++i) v[i] = 1;
        break;
      }
      case coll::DataType::kUint8:
        std::memset(p, 1, kBytes);
        break;
    }
  };
  fill_ones(acc.data(), dtype);
  fill_ones(in.data(), dtype);
  const std::vector<std::byte> acc0 = acc;

  auto run = [&](auto&& fn) {
    acc = acc0;
    fn(std::span<std::byte>(acc), std::span<const std::byte>(in), dtype, op);
    const auto t0 = Clock::now();
    for (int i = 0; i < kItersPerRound; ++i) {
      fn(std::span<std::byte>(acc), std::span<const std::byte>(in), dtype, op);
    }
    const double s = seconds_since(t0);
    return static_cast<double>(kBytes) * kItersPerRound / s / 1e9;  // GB/s
  };

  std::vector<double> scalar(kRounds), vectorized(kRounds), ratio(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    scalar[r] = run(coll::reduce_bytes_reference);
    vectorized[r] = run(coll::reduce_bytes);
    ratio[r] = vectorized[r] / scalar[r];
  }
  const double scalar_gbps = percentile(scalar, 50.0);
  const double vector_gbps = percentile(vectorized, 50.0);
  const double speedup = percentile(ratio, 50.0);

  std::printf("%-4s %-5s %12.2f %12.2f %8.2fx\n", dtype_name(dtype),
              op_name(op), scalar_gbps, vector_gbps, speedup);
  std::fprintf(json,
               "{\"bench\":\"micro_datapath\",\"section\":\"reduce\","
               "\"dtype\":\"%s\",\"op\":\"%s\",\"bytes\":%zu,"
               "\"scalar_gbps\":%.3f,\"vector_gbps\":%.3f,\"speedup\":%.3f}\n",
               dtype_name(dtype), op_name(op), kBytes, scalar_gbps,
               vector_gbps, speedup);
}

void bench_reduce(std::FILE* json) {
  std::printf("%-4s %-5s %12s %12s %9s\n", "type", "op", "scalar GB/s",
              "vector GB/s", "speedup");
  for (coll::DataType dtype :
       {coll::DataType::kFloat32, coll::DataType::kFloat64,
        coll::DataType::kInt32, coll::DataType::kInt64,
        coll::DataType::kUint8}) {
    bench_reduce_case(json, dtype, coll::ReduceOp::kSum);
  }
  for (coll::ReduceOp op : {coll::ReduceOp::kProd, coll::ReduceOp::kMin,
                            coll::ReduceOp::kMax}) {
    bench_reduce_case(json, coll::DataType::kFloat32, op);
  }
}

// --- section 3: end-to-end host cost per collective --------------------------

void bench_e2e(std::FILE* json) {
  svc::Fabric::Options options;
  options.seed = 1;
  options.config.move_data = false;
  options.gpu_config.materialize_memory = false;
  svc::Fabric fabric(cluster::make_testbed(), options);

  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = bench::bench_create_comm(fabric, app, gpus);

  constexpr int kWarmup = 2;
  constexpr int kIters = 400;
  const auto t0 = Clock::now();
  (void)bench::run_collective_loop(fabric, app, gpus, comm,
                                   coll::CollectiveKind::kAllReduce, 1_MB,
                                   kWarmup, kIters);
  // Per launched collective: every iteration launches one per rank.
  const double ns = seconds_since(t0) * 1e9 /
                    (static_cast<double>(kWarmup + kIters) * gpus.size());

  std::uint64_t hits = 0, misses = 0;
  for (GpuId g : gpus) {
    const auto st = fabric.proxy_for(g).plan_cache_stats(comm);
    hits += st.hits;
    misses += st.misses;
  }
  const double hit_rate = static_cast<double>(hits) / (hits + misses);
  std::printf("%18s %10s\n", "host ns/collective", "hit rate");
  std::printf("%18.0f %9.1f%%\n", ns, hit_rate * 100.0);
  std::fprintf(json,
               "{\"bench\":\"micro_datapath\",\"section\":\"e2e\","
               "\"host_ns_per_collective\":%.1f,\"hit_rate\":%.4f}\n",
               ns, hit_rate);
}

}  // namespace

int main() {
  std::printf("=== micro_datapath: host-side datapath fast path ===\n\n");

  std::FILE* json = std::fopen("BENCH_datapath.json", "w");
  MCCS_CHECK(json != nullptr, "cannot open BENCH_datapath.json");

  std::printf("-- collective plan: build-per-launch vs cache hit --\n");
  bench_plans(json);
  std::printf("\n-- reduce_bytes: scalar reference vs vectorized --\n");
  bench_reduce(json);
  std::printf("\n-- end-to-end host cost per collective launch --\n");
  bench_e2e(json);

  std::fclose(json);
  std::printf("\nBENCH_datapath.json written.\n");
  return 0;
}
