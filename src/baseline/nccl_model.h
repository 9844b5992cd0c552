#pragma once
// NCCL baseline model (§6.1 "Baselines").
//
// The paper compares MCCS against NCCL v2.17.1 and against NCCL(OR) — NCCL
// whose inter-host ring the user hand-configured with the output of the
// locality-aware algorithm. What the comparison needs from NCCL is its
// *decision procedure and cost structure*, not its kernels:
//
//   * strategy frozen at communicator init; no runtime reconfiguration;
//   * inter-host ring follows the user-assigned rank order (NCCL cannot see
//     the physical topology from inside a tenant, §2.2);
//   * flows routed by ECMP — NCCL opens parallel connections assuming they
//     spread over distinct paths, but the fabric may hash them together;
//   * an in-process library: no shim/service IPC hops on the datapath, a
//     leaner per-collective launch cost than the MCCS prototype.
//
// We therefore run the same engine machinery with a library-cost
// ServiceConfig and the appropriate strategy provider. This keeps the
// NCCL-vs-MCCS comparison apples-to-apples on the shared substrates: the
// differences measured are exactly the ones the paper attributes (ring
// quality, flow placement, service datapath latency).

#include "mccs/config.h"

namespace mccs::baseline {

/// Timing model of an in-process collective library. The 50-80 us MCCS
/// datapath overhead (§6.2) is absent; kernel launch and per-step transport
/// costs match a tuned library.
inline svc::ServiceConfig nccl_library_config() {
  svc::ServiceConfig c;
  c.shim_to_service_latency = 0.0;   // library call, same address space
  c.service_to_shim_latency = 0.0;
  c.engine_hop_latency = 0.0;
  c.transport_step_overhead = micros(6);  // proxy-thread post/poll
  c.comm_kernel_launch = micros(10);      // kernel launch + fifo handoff
  c.intra_host_hop_latency = micros(4);
  c.network_hop_latency = micros(5);
  c.connection_setup_time = micros(500);
  c.control_hop_latency = micros(20);
  c.bootstrap_latency = millis(2);
  return c;
}

}  // namespace mccs::baseline
