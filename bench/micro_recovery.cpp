// Microbenchmark: failure detection and recovery under a single-link outage.
//
// A steady-state 4-rank cross-rack AllReduce loop runs with transport stall
// detection armed; mid-iteration the hottest leaf->spine fabric link goes
// down permanently (via workload::FaultPlan, the same scripted injector the
// tests use). Two recovery modes are measured:
//
//   rehash   — no controller: the transport's deadline + ECMP re-hash retry
//              ladder alone must move stalled chunks to the surviving spine;
//   reconfig — retries exhausted immediately (max_retries = 0), so the
//              transport escalates to the controller, which confirms the dead
//              link, re-runs flow assignment over surviving capacity, and
//              swaps routes through the Fig.-4 barrier.
//
// Reported per mode (all virtual/simulated seconds):
//   time_to_detect_s  — fault injection -> first retry (rehash) or the
//                       controller confirming the link dead (reconfig);
//   time_to_recover_s — fault injection -> the disrupted iteration completes;
//   goodput_retained  — healthy iteration time / degraded-steady-state
//                       iteration time (1.0 = no loss, 0.5 = half speed);
//   bit_correct       — every rank's result is exactly 4^rounds.
//
// Emits one JSON line per mode to BENCH_recovery.json; scripts/check.sh
// gates on the schema, on bit_correct, on a finite recovery time, and on
// goodput_retained >= 0.5.

#include <cmath>
#include <cstdio>
#include <vector>

#include "cluster/cluster.h"
#include "common.h"
#include "mccs/fabric.h"
#include "policy/controller.h"
#include "workload/fault_plan.h"

namespace {

using namespace mccs;

constexpr std::size_t kCount = 1u << 20;  // floats per rank: 4 MiB payloads
constexpr int kWarmup = 2;                // connection setup + plan cache
constexpr int kHealthy = 3;               // measured fault-free iterations
constexpr int kDegraded = 4;              // measured post-recovery iterations
constexpr int kRounds = kWarmup + kHealthy + 1 + kDegraded;  // +1 disrupted

std::uint64_t total_retries(svc::Fabric& fabric) {
  return fabric.telemetry().metrics().counter_total("transport_retries");
}

std::uint64_t total_escalations(svc::Fabric& fabric) {
  return fabric.telemetry().metrics().counter_total("transport_escalations");
}

/// The leaf->spine link currently carrying the most traffic — guaranteed to
/// sit on an assigned route of the running collective.
LinkId hottest_fabric_uplink(svc::Fabric& fabric) {
  const net::Topology& topo = fabric.cluster().topology();
  LinkId victim{};
  double hottest = 0.0;
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const LinkId id{static_cast<std::uint32_t>(l)};
    if (topo.node(topo.link(id).src).kind != net::NodeKind::kLeafSwitch) continue;
    if (topo.node(topo.link(id).dst).kind != net::NodeKind::kSpineSwitch) continue;
    const double tp = fabric.network().link_throughput(id);
    if (tp > hottest) {
      hottest = tp;
      victim = id;
    }
  }
  MCCS_CHECK(victim.valid(), "no loaded fabric uplink to fail");
  return victim;
}

struct ModeResult {
  const char* mode = "?";
  double healthy_iter = 0.0;
  double disrupted_iter = 0.0;
  double degraded_iter = 0.0;
  double detect = -1.0;   ///< < 0 => never detected
  double recover = -1.0;  ///< < 0 => never recovered
  std::uint64_t retries = 0;
  std::uint64_t escalations = 0;
  int comms_reconfigured = 0;
  bool bit_correct = false;
};

ModeResult run_mode(bool with_controller) {
  svc::Fabric::Options opt;
  opt.config.chunk_deadline_slack = 4.0;
  opt.config.chunk_deadline_floor = micros(100);
  if (with_controller) opt.config.transport_max_retries = 0;
  svc::Fabric fabric{cluster::make_testbed(), opt};
  std::optional<policy::Controller> controller;
  if (with_controller) {
    controller.emplace(fabric);
    controller->attach();  // FFA explicit routes
    controller->enable_fault_recovery();
  }

  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = bench::bench_create_comm(fabric, app, gpus);
  struct Rank {
    svc::Shim* shim;
    gpu::Stream* stream;
    gpu::DevicePtr buf;
  };
  std::vector<Rank> ranks;
  for (GpuId g : gpus) {
    svc::Shim& shim = fabric.connect(app, g);
    Rank r{&shim, &shim.create_app_stream(), shim.alloc(kCount * sizeof(float))};
    for (auto& x : fabric.gpus().typed<float>(r.buf, kCount)) x = 1.0f;
    ranks.push_back(r);
  }

  sim::EventLoop& loop = fabric.loop();
  int remaining = 0;
  auto issue_round = [&] {
    remaining = static_cast<int>(ranks.size());
    for (Rank& r : ranks) {
      r.shim->all_reduce(comm, r.buf, r.buf, kCount, coll::DataType::kFloat32,
                         coll::ReduceOp::kSum, *r.stream,
                         [&remaining](Time) { --remaining; });
    }
  };
  // Drive the loop in short slices so the watcher can observe transport
  // counters at a fine virtual-time granularity (detection timestamping).
  auto drain_round = [&](const std::function<void()>& watch) {
    while (remaining > 0) {
      MCCS_CHECK(loop.size() > 0, "recovery loop stalled with no events");
      loop.run_until(loop.now() + micros(5));
      if (watch) watch();
    }
  };

  ModeResult res;
  res.mode = with_controller ? "reconfig" : "rehash";

  for (int i = 0; i < kWarmup; ++i) {
    issue_round();
    drain_round({});
  }
  Time t0 = loop.now();
  for (int i = 0; i < kHealthy; ++i) {
    issue_round();
    drain_round({});
  }
  res.healthy_iter = (loop.now() - t0) / kHealthy;

  // Disrupted iteration: fail the hottest uplink one third of the way in.
  issue_round();
  loop.run_until(loop.now() + res.healthy_iter / 3.0);
  const LinkId victim = hottest_fabric_uplink(fabric);
  workload::FaultPlan plan;
  plan.link_down(loop.now(), victim);  // never restored
  plan.schedule(fabric);
  const Time t_fault = loop.now();
  const std::uint64_t retries_before = total_retries(fabric);
  drain_round([&] {
    if (res.detect >= 0.0) return;
    if (with_controller) {
      if (controller->recovery_log().empty()) return;
      res.detect = controller->recovery_log().front().detected - t_fault;
    } else if (total_retries(fabric) > retries_before) {
      res.detect = loop.now() - t_fault;
    }
  });
  res.recover = loop.now() - t_fault;
  res.disrupted_iter = loop.now() - (t_fault - res.healthy_iter / 3.0);

  // Degraded steady state over the surviving capacity.
  t0 = loop.now();
  for (int i = 0; i < kDegraded; ++i) {
    issue_round();
    drain_round({});
  }
  res.degraded_iter = (loop.now() - t0) / kDegraded;
  loop.run();

  res.retries = total_retries(fabric);
  res.escalations = total_escalations(fabric);
  if (with_controller) {
    for (const auto& rec : controller->recovery_log()) {
      res.comms_reconfigured += rec.comms_reconfigured;
    }
  }
  const float expected = std::pow(4.0f, static_cast<float>(kRounds));
  res.bit_correct = true;
  for (Rank& r : ranks) {
    for (float x : fabric.gpus().typed<float>(r.buf, kCount)) {
      res.bit_correct = res.bit_correct && x == expected;
    }
  }
  return res;
}

}  // namespace

int main() {
  std::printf("=== micro_recovery: single-link failure during AllReduce ===\n\n");

  std::FILE* json = std::fopen("BENCH_recovery.json", "w");
  MCCS_CHECK(json != nullptr, "cannot open BENCH_recovery.json");

  std::printf("%-9s %12s %12s %12s %10s %9s %8s %6s %5s\n", "mode",
              "healthy(us)", "detect(us)", "recover(us)", "goodput", "retries",
              "escal", "reconf", "bits");
  for (const bool with_controller : {false, true}) {
    const ModeResult r = run_mode(with_controller);
    const double goodput =
        r.degraded_iter > 0.0 ? r.healthy_iter / r.degraded_iter : 0.0;
    std::printf("%-9s %12.1f %12.1f %12.1f %9.1f%% %9llu %8llu %6d %5s\n",
                r.mode, r.healthy_iter * 1e6, r.detect * 1e6, r.recover * 1e6,
                goodput * 100.0, static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.escalations),
                r.comms_reconfigured, r.bit_correct ? "ok" : "BAD");
    std::fprintf(
        json,
        "{\"bench\":\"micro_recovery\",\"mode\":\"%s\",\"gpus\":4,"
        "\"bytes\":%zu,\"healthy_iter_s\":%.9f,\"disrupted_iter_s\":%.9f,"
        "\"degraded_iter_s\":%.9f,\"time_to_detect_s\":%.9f,"
        "\"time_to_recover_s\":%.9f,\"goodput_retained\":%.4f,"
        "\"retries\":%llu,\"escalations\":%llu,\"comms_reconfigured\":%d,"
        "\"bit_correct\":%s}\n",
        r.mode, kCount * sizeof(float), r.healthy_iter, r.disrupted_iter,
        r.degraded_iter, r.detect, r.recover, goodput,
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.escalations), r.comms_reconfigured,
        r.bit_correct ? "true" : "false");
  }
  std::fclose(json);
  std::printf("\nBENCH_recovery.json written (one line per mode).\n");
  return 0;
}
