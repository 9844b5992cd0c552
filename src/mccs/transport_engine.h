#pragma once
// Transport engine (§4.2): executes inter-host chunk transfers for the proxy
// engines as network flows, stamping each connection's explicit route (the
// policy-based-routing mechanism of §5) and enforcing traffic-scheduling QoS
// windows (§4.3, example #4) by gating and pausing tenant flows.
//
// One transport engine exists per (host, NIC); the proxy engine picks the
// engine paired with the sending GPU.

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "gpusim/memory.h"
#include "mccs/context.h"

namespace mccs::svc {

/// Periodic send windows for one application (CASSINI-style interleaving).
/// An empty `allowed` list with period > 0 blocks the app entirely.
struct TrafficSchedule {
  struct Window {
    Time begin = 0.0;  ///< offset within the period
    Time end = 0.0;
  };
  Time t0 = 0.0;      ///< phase reference
  Time period = 0.0;  ///< <= 0 means unrestricted
  std::vector<Window> allowed;

  [[nodiscard]] bool unrestricted() const { return period <= 0.0; }
  [[nodiscard]] bool open_at(Time t) const;
  /// Earliest time >= t at which sending is allowed.
  [[nodiscard]] Time next_open(Time t) const;
  /// Next schedule boundary strictly after t (window edge), for re-arming.
  [[nodiscard]] Time next_boundary(Time t) const;
};

/// One chunk transfer posted by a proxy engine.
struct ChunkTransfer {
  AppId app;
  GpuId src_gpu;
  GpuId dst_gpu;
  Bytes bytes = 0;
  RouteId route{};              ///< explicit route; invalid => ECMP
  std::uint64_t ecmp_key = 0;
  /// Runs once the last byte lands: the receiver applies the chunk, then the
  /// sender sees its completion (RDMA-write-then-CQE order).
  std::function<void()> on_done;
};

class TransportEngine {
 public:
  /// Requires the fabric's telemetry (ServiceContext::telemetry): the
  /// engine's counters live in its MetricsRegistry.
  TransportEngine(ServiceContext& ctx, HostId host, int nic_index);

  TransportEngine(const TransportEngine&) = delete;
  TransportEngine& operator=(const TransportEngine&) = delete;

  /// Post an inter-host send. Applies the traffic schedule of the owning
  /// app, then starts a network flow; its completion runs `on_done`.
  /// With stall detection enabled (ServiceConfig::chunk_deadline_slack > 0)
  /// the send also gets a no-progress deadline and a bounded retry ladder.
  void post_send(ChunkTransfer transfer);

  /// Install / replace the QoS traffic schedule for an app. Active flows of
  /// that app are paused or resumed to match the schedule immediately.
  void set_schedule(AppId app, TrafficSchedule schedule);
  void clear_schedule(AppId app);

  /// Tenant teardown: cancel every in-flight flow, pending deadline timer,
  /// and gated send owned by `app`. Their on_done callbacks never run.
  /// Returns the number of sends dropped.
  std::size_t abort_app(AppId app);

  [[nodiscard]] int nic_index() const { return nic_index_; }

 private:
  /// One posted send for its whole lifetime (across retries): the transfer
  /// with its callback, the current network flow, and the detection state.
  struct Inflight {
    ChunkTransfer transfer;
    FlowId flow{};
    int attempts = 0;        ///< completed no-progress windows (retry count)
    Bytes watermark = 0;     ///< flow_remaining at the last deadline check
    Time deadline_dt = 0.0;  ///< per-arm deadline window
    Time posted = 0.0;       ///< when post_send accepted it (telemetry span)
    sim::EventLoop::Handle deadline;
  };

  struct AppGate {
    TrafficSchedule schedule;
    std::vector<std::uint64_t> active_sends;  ///< send ids with a live flow
    std::deque<std::uint64_t> waiting;  ///< posted while the window is closed
    sim::EventLoop::Handle timer;
    bool gated_closed = false;
  };

  void start_flow(std::uint64_t sid, AppGate* gate);
  void finish_send(std::uint64_t sid);
  void arm_deadline(std::uint64_t sid);
  void on_deadline(std::uint64_t sid);
  void arm_timer(AppId app, AppGate& gate);
  void on_boundary(AppId app);

  ServiceContext* ctx_;
  HostId host_;
  int nic_index_;
  std::unordered_map<std::uint32_t, AppGate> gates_;      ///< by AppId
  std::unordered_map<std::uint64_t, Inflight> inflight_;  ///< by send id
  std::uint64_t next_send_id_ = 0;
  // Registry instruments, interned once at construction (labels: host/nic).
  // All three counters stay zero on the healthy path with detection
  // disabled; the fabric-wide totals are counter_total("transport_retries")
  // and its siblings.
  telemetry::Counter* deadline_checks_ = nullptr;  ///< deadline timers fired
  telemetry::Counter* retries_ = nullptr;  ///< re-posts after a stalled window
  telemetry::Counter* escalations_ = nullptr;  ///< stall reports handed up
  telemetry::Histogram* send_latency_us_ = nullptr;  ///< recorded when enabled
  int track_ = -1;  ///< lazily interned timeline track (enabled mode only)
};

}  // namespace mccs::svc
