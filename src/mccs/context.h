#pragma once
// Shared wiring for all MCCS service components on a fabric: the event loop,
// the simulated network and GPUs, the cluster inventory, the timing config,
// and the Fabric itself, the deployment's one registry of engines and
// communicators. Owned by the Fabric; every engine holds a reference.

#include <cstdint>
#include <functional>

#include "cluster/cluster.h"
#include "common/ids.h"
#include "gpusim/runtime.h"
#include "mccs/config.h"
#include "netsim/network.h"
#include "sim/event_loop.h"
#include "telemetry/telemetry.h"

namespace mccs::svc {

class Fabric;

/// A transport engine's escalation after exhausting its silent retry ladder
/// on one chunk: the provider-side signal that a path is persistently dead
/// (the controller cross-checks the reported links against the network's
/// monitoring plane and reconfigures around confirmed failures).
struct StallReport {
  AppId app{};
  HostId host{};
  GpuId src_gpu{};
  GpuId dst_gpu{};
  Bytes bytes = 0;
  int attempts = 0;               ///< completed no-progress windows so far
  std::vector<LinkId> path;       ///< path of the attempt that stalled
};

struct ServiceContext {
  sim::EventLoop* loop = nullptr;
  net::Network* network = nullptr;
  gpu::GpuRuntime* gpus = nullptr;
  const cluster::Cluster* cluster = nullptr;
  ServiceConfig config;
  std::uint64_t seed = 1;  ///< fabric seed; perturbs ECMP hashing per trial

  /// Fabric-wide telemetry (always non-null under a Fabric; wired before any
  /// engine is built). Counters are always live; timeline recording sites
  /// check telemetry->enabled() first.
  telemetry::Telemetry* telemetry = nullptr;

  /// The deployment's registry: every engine by address, and whether a
  /// communicator is gone or was killed.
  Fabric* fabric = nullptr;

  /// Escalation sink for transport stalls (set via Fabric::set_stall_handler,
  /// typically by a policy::Controller with fault recovery enabled). Null =>
  /// transports keep retrying on their own.
  std::function<void(const StallReport&)> on_transport_stall;
};

}  // namespace mccs::svc
