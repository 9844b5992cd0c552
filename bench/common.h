#pragma once
// Shared bench harness: constructs a fabric configured for one of the four
// evaluation schemes of §6.1 and provides nccl-tests-style collective
// benchmark loops.
//
//   NCCL      — library timing model, user rank order, ECMP
//   NCCL(OR)  — library timing model, locality-optimal ring (the user hand-
//               configured ranks with the provider algorithm's output), ECMP
//   MCCS(-FA) — MCCS service timing model, locality rings, ECMP
//   MCCS      — MCCS service timing model, locality rings + FFA routes

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/nccl_model.h"
#include "cluster/cluster.h"
#include "common/stats.h"
#include "mccs/fabric.h"
#include "policy/controller.h"

namespace mccs::bench {

enum class Scheme { kNccl, kNcclOr, kMccsNoFa, kMccs };

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kNccl: return "NCCL";
    case Scheme::kNcclOr: return "NCCL(OR)";
    case Scheme::kMccsNoFa: return "MCCS(-FA)";
    case Scheme::kMccs: return "MCCS";
  }
  return "?";
}

struct Harness {
  std::unique_ptr<svc::Fabric> fabric;
  std::unique_ptr<policy::Controller> controller;
};

inline Harness make_harness(Scheme scheme, cluster::Cluster cl,
                            std::uint64_t seed, bool timing_only = true) {
  svc::Fabric::Options options;
  options.seed = seed;
  if (scheme == Scheme::kNccl || scheme == Scheme::kNcclOr) {
    options.config = baseline::nccl_library_config();
  }
  if (timing_only) {
    // Benches measure time, not data; correctness is covered by the tests.
    options.config.move_data = false;
    options.gpu_config.materialize_memory = false;
  }
  Harness h;
  h.fabric = std::make_unique<svc::Fabric>(std::move(cl), options);
  h.controller = std::make_unique<policy::Controller>(*h.fabric);
  switch (scheme) {
    case Scheme::kNccl:
      h.controller->set_ring_policy(policy::Controller::RingPolicy::kUserOrder);
      h.controller->set_flow_policy(policy::Controller::FlowPolicy::kEcmp);
      break;
    case Scheme::kNcclOr:
    case Scheme::kMccsNoFa:
      h.controller->set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
      h.controller->set_flow_policy(policy::Controller::FlowPolicy::kEcmp);
      break;
    case Scheme::kMccs:
      h.controller->set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
      h.controller->set_flow_policy(policy::Controller::FlowPolicy::kFfa);
      break;
  }
  h.controller->attach();
  return h;
}

/// Create a communicator synchronously (runs the loop until bootstrapped).
inline CommId bench_create_comm(svc::Fabric& fabric, AppId app,
                                const std::vector<GpuId>& gpus) {
  const svc::UniqueId uid = fabric.new_unique_id();
  int ready = 0;
  CommId comm;
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    fabric.connect(app, gpus[r])
        .comm_init_rank(uid, static_cast<int>(gpus.size()), static_cast<int>(r),
                        [&](CommId id) {
                          comm = id;
                          ++ready;
                        });
  }
  const bool ok = fabric.loop().run_while_pending(
      [&] { return ready == static_cast<int>(gpus.size()); });
  MCCS_CHECK(ok, "bootstrap stalled");
  return comm;
}

/// Back-to-back collectives on one communicator (nccl-tests style). Each
/// rank's buffers and app stream are set up once, at construction, and
/// released with the loop, so run() spends its time on collectives only.
class CollectiveLoop {
 public:
  CollectiveLoop(svc::Fabric& fabric, AppId app, const std::vector<GpuId>& gpus,
                 CommId comm, coll::CollectiveKind kind, Bytes output_bytes)
      : fabric_(&fabric), comm_(comm) {
    const int n = static_cast<int>(gpus.size());
    // "Data size" = output buffer size (§6.2).
    const std::size_t out_elems = output_bytes / sizeof(float);
    // `count` is chosen so `output_bytes` equals the TOTAL data size of the
    // operation (what the paper's x-axis plots): blocked collectives divide
    // it across the n per-rank blocks.
    const std::size_t count =
        (kind == coll::CollectiveKind::kAllGather ||
         kind == coll::CollectiveKind::kAllToAll ||
         kind == coll::CollectiveKind::kReduceScatter ||
         kind == coll::CollectiveKind::kGather ||
         kind == coll::CollectiveKind::kScatter)
            ? out_elems / static_cast<std::size_t>(n)
            : out_elems;
    MCCS_EXPECTS(count > 0);

    // Each rank's buffers as the service validates them; a buffer the rank
    // never touches (a non-root's Broadcast send, say) is left unallocated.
    svc::CollectiveArgs args;
    args.kind = kind;
    args.count = count;
    for (int rank = 0; rank < n; ++rank) {
      svc::Shim& shim =
          fabric.connect(app, gpus[static_cast<std::size_t>(rank)]);
      const svc::RankBuffers sizes = svc::rank_buffers(args, n, rank);
      const auto alloc = [&shim](Bytes bytes) {
        return bytes > 0 ? shim.alloc(bytes) : gpu::DevicePtr{};
      };
      Rank r{&shim, &shim.create_app_stream(), args};
      r.args.send = alloc(sizes.send);
      r.args.recv = alloc(sizes.recv);
      ranks_.push_back(r);
    }
  }

  ~CollectiveLoop() {
    for (const Rank& r : ranks_) {
      for (const gpu::DevicePtr p : {r.args.send, r.args.recv}) {
        if (p.valid()) r.shim->free(p);
      }
      fabric_->gpus().gpu(r.shim->gpu()).destroy_stream(r.stream->id());
    }
  }

  CollectiveLoop(const CollectiveLoop&) = delete;
  CollectiveLoop& operator=(const CollectiveLoop&) = delete;

  /// Per-iteration completion times after `warmup` iterations.
  std::vector<Time> run(int warmup, int iters) {
    const int n = static_cast<int>(ranks_.size());
    std::vector<Time> iter_end;
    int completions = 0;
    const int total = warmup + iters;
    for (int it = 0; it < total; ++it) {
      for (Rank& r : ranks_) {
        r.shim->collective(comm_, r.args, *r.stream,
                           [&completions](Time) { ++completions; });
      }
      const int want = (it + 1) * n;
      const bool ok = fabric_->loop().run_while_pending(
          [&] { return completions >= want; });
      MCCS_CHECK(ok, "collective loop stalled");
      if (it >= warmup) iter_end.push_back(fabric_->loop().now());
    }

    std::vector<Time> durations;
    Time prev = iter_end.empty() ? 0.0 : iter_end.front();
    for (std::size_t i = 1; i < iter_end.size(); ++i) {
      durations.push_back(iter_end[i] - prev);
      prev = iter_end[i];
    }
    MCCS_CHECK(!durations.empty(), "need at least 2 measured iterations");
    return durations;
  }

 private:
  struct Rank {
    svc::Shim* shim;
    gpu::Stream* stream;
    svc::CollectiveArgs args;  ///< f32, sum, root 0, this rank's buffers
  };

  svc::Fabric* fabric_;
  CommId comm_;
  std::vector<Rank> ranks_;
};

/// One CollectiveLoop run: per-iteration completion times after `warmup`
/// iterations.
inline std::vector<Time> run_collective_loop(svc::Fabric& fabric, AppId app,
                                             const std::vector<GpuId>& gpus,
                                             CommId comm,
                                             coll::CollectiveKind kind,
                                             Bytes output_bytes, int warmup,
                                             int iters) {
  return CollectiveLoop(fabric, app, gpus, comm, kind, output_bytes)
      .run(warmup, iters);
}

/// Algorithm bandwidth samples (GB/s) for one scheme across ECMP seeds.
inline std::vector<double> algbw_samples(
    Scheme scheme, const std::function<cluster::Cluster()>& make_cluster,
    const std::vector<GpuId>& gpus, coll::CollectiveKind kind, Bytes bytes,
    int trials, int iters) {
  std::vector<double> samples;
  for (int t = 0; t < trials; ++t) {
    Harness h = make_harness(scheme, make_cluster(), 1000 + 7 * t);
    const AppId app{1};
    const CommId comm = bench_create_comm(*h.fabric, app, gpus);
    const auto durations =
        run_collective_loop(*h.fabric, app, gpus, comm, kind, bytes, 2, iters);
    for (Time d : durations) {
      samples.push_back(to_gibps(coll::algorithm_bandwidth(bytes, d)));
    }
  }
  return samples;
}

}  // namespace mccs::bench
