#pragma once
// Tunable timing model of the MCCS service datapath and control plane.
//
// The paper reports a 50–80 µs end-to-end latency overhead on the datapath
// ("the communication between the application and the MCCS service, as well
// as between the internal engines of the MCCS service, incurs an overall
// latency of 50-80 us", §6.2). The defaults below decompose that figure into
// the hops the implementation actually takes; changing them changes only
// timing, never behaviour.

#include <cstddef>

#include "common/units.h"

namespace mccs::svc {

struct ServiceConfig {
  // --- shim <-> service IPC (shared-memory command queues) -----------------
  /// Shim command queue -> frontend engine delivery.
  Time shim_to_service_latency = micros(15);
  /// Completion notification back to the shim.
  Time service_to_shim_latency = micros(15);

  // --- internal engine-to-engine hops ---------------------------------------
  /// Frontend engine -> proxy engine work-request hand-off.
  Time engine_hop_latency = micros(10);
  /// Proxy engine -> transport engine per-step hand-off (RDMA post/poll).
  Time transport_step_overhead = micros(8);

  // --- GPU-side costs --------------------------------------------------------
  /// Launch overhead for a communication kernel on the communicator stream.
  Time comm_kernel_launch = micros(5);
  /// Intra-host (shared-memory channel) per-hop latency.
  Time intra_host_hop_latency = micros(4);

  // --- network / connection management --------------------------------------
  /// Per-message latency on a peer-to-peer RDMA connection.
  Time network_hop_latency = micros(5);
  /// Tearing down + re-establishing one peer-to-peer connection (amortised;
  /// connections of one reconfiguration are re-established in parallel).
  Time connection_setup_time = micros(500);
  /// Per-hop latency on the TCP-based control ring used for bootstrap and
  /// the reconfiguration-barrier AllGather.
  Time control_hop_latency = micros(20);
  /// Communicator bootstrap (rendezvous with rank 0, §4.2).
  Time bootstrap_latency = millis(2);

  /// When false, the datapath is timing-only: chunk transfers carry no real
  /// bytes (pair with gpu::DeviceConfig::materialize_memory = false for
  /// large-message benches). Defaults to true: collectives move and reduce
  /// real data.
  bool move_data = true;

  // --- fault tolerance (see DESIGN.md "Failure model and recovery protocol") -
  /// Stall detection: each posted chunk gets a no-progress deadline of
  /// `chunk_deadline_slack` x its analytic lower bound (start latency plus
  /// serialization at the path's bottleneck capacity), floored at
  /// `chunk_deadline_floor`. A deadline that fires with progress since the
  /// last check simply re-arms; only a full window of zero progress (and not
  /// QoS-gated) triggers the retry ladder. <= 0 disables detection entirely —
  /// the default, so the healthy path schedules no timers and is bit-for-bit
  /// identical to a build without the machinery.
  double chunk_deadline_slack = 0.0;
  Time chunk_deadline_floor = millis(2);
  /// Retry ladder: a stalled chunk is re-posted under a re-hashed ECMP key
  /// (dropping any pinned explicit route). After `transport_max_retries`
  /// silent attempts the transport escalates to the controller via the
  /// fabric's stall handler; retries continue either way (with linear
  /// backoff, capped at 16x) so a reconfiguration can still drain the
  /// stalled collective over surviving paths.
  int transport_max_retries = 3;

  /// ABLATION ONLY: apply reconfiguration commands immediately on receipt,
  /// skipping the Fig.-4 sequence-number barrier. Demonstrates the
  /// correctness failure the protocol exists to prevent (collectives
  /// executing under mixed ring configurations deadlock or corrupt data).
  bool unsafe_immediate_reconfig = false;
};

}  // namespace mccs::svc
