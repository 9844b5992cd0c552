#pragma once
// Fabric: one complete MCCS deployment — the simulated substrate (event
// loop, network, GPUs) plus a per-host Service, the communicator bootstrap
// rendezvous, and the provider-facing management API of §4.3 that external
// controllers (src/policy) drive:
//
//   * list communicators with their GPU placements and current strategies;
//   * reconfigure a communicator's strategy at runtime (delivered to every
//     rank's proxy with independent control-plane delays — the Fig. 4 race);
//   * install per-tenant traffic schedules on the transport engines;
//   * retrieve per-application collective traces.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "common/ids.h"
#include "common/units.h"
#include "gpusim/runtime.h"
#include "mccs/context.h"
#include "mccs/service.h"
#include "mccs/strategy.h"
#include "mccs/trace.h"
#include "mccs/transport_engine.h"
#include "netsim/network.h"
#include "sim/event_loop.h"

namespace mccs::svc {

/// Communicator metadata exposed to controllers.
struct CommInfo {
  CommId id;
  AppId app;
  int nranks = 0;
  std::vector<GpuId> gpus;  ///< by rank
};

/// What a tenant kill tore down (observability for tests and chaos runs).
struct KillReport {
  AppId app{};
  std::size_t comms = 0;        ///< communicators removed from the registry
  std::size_t collectives = 0;  ///< active + held collectives aborted
  std::size_t sends = 0;        ///< in-flight transport sends cancelled
};

class Fabric {
 public:
  struct Options {
    ServiceConfig config{};
    gpu::DeviceConfig gpu_config{};
    std::uint64_t seed = 1;
  };

  explicit Fabric(cluster::Cluster cluster);
  Fabric(cluster::Cluster cluster, Options options);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- substrate access ---------------------------------------------------------
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] gpu::GpuRuntime& gpus() { return *gpus_; }
  [[nodiscard]] const cluster::Cluster& cluster() const { return cluster_; }
  [[nodiscard]] const ServiceConfig& config() const { return context_.config; }

  [[nodiscard]] Service& service(HostId host);
  /// Convenience: attach an application process to the service of the host
  /// owning `gpu`.
  Shim& connect(AppId app, GpuId gpu);

  // --- communicator bootstrap -----------------------------------------------------
  UniqueId new_unique_id();

  /// Provider hook choosing the initial strategy for a new communicator.
  /// Defaults to the NCCL-model strategy (user rank order, ECMP). The result
  /// is checked once, as reconfigure() checks its strategy, and shared by
  /// every rank.
  void set_strategy_provider(std::function<CommStrategy(const CommInfo&)> provider);

  /// Called by shims; when all `nranks` ranks of `uid` joined, installs the
  /// communicator on every rank's proxy after the bootstrap latency.
  void bootstrap_join(UniqueId uid, int nranks, int rank, AppId app, GpuId gpu,
                      std::function<void(CommId)> on_ready);

  /// Called by shims: one rank's comm_destroy. The first rank to leave
  /// removes the communicator from the registry, as destroy_communicator
  /// does, so policies stop planning for it; each call then tears down its
  /// own rank's proxy state. A call for a communicator the provider killed
  /// meanwhile is dropped.
  void destroy_rank(CommId comm, GpuId gpu);

  // --- management API (§4.3) --------------------------------------------------------
  [[nodiscard]] std::vector<CommInfo> list_communicators() const;
  [[nodiscard]] const CommInfo& comm_info(CommId comm) const;

  /// Tolerant lookup for datapath races: null when the communicator was torn
  /// down by kill_app (the issuing tenant may not have learned of the kill
  /// yet). A communicator that never existed or was destroyed in an orderly
  /// way still fails loudly — only a kill excuses a dangling reference.
  [[nodiscard]] const CommInfo* find_comm_info(CommId comm) const;

  /// Current strategy as seen by rank 0's proxy. Every rank shares this one
  /// object; it lives until a later reconfiguration replaces it on every
  /// rank, or the communicator goes away.
  [[nodiscard]] const CommStrategy& strategy_of(CommId comm);

  /// Send a reconfiguration command to every rank's proxy. `delays[r]` adds
  /// extra control-plane delay for rank r (tests use this to force the
  /// Fig.-4 race); empty means the configured control latency only. All
  /// ranks receive one shared, immutable copy of `strategy`. A strategy
  /// with no channel, or with a channel order that does not cover exactly
  /// the communicator's ranks, throws ContractViolation here and leaves the
  /// installed strategy and the event loop untouched.
  void reconfigure(CommId comm, CommStrategy strategy,
                   std::vector<Time> delays = {});

  /// Install / clear a traffic-scheduling QoS window for a tenant on every
  /// transport engine in the cluster.
  void set_traffic_schedule(AppId app, const TrafficSchedule& schedule);
  void clear_traffic_schedule(AppId app);

  /// All collective trace records of one application, cluster-wide:
  /// trace_all() filtered to `app`.
  [[nodiscard]] std::vector<TraceRecord> trace(AppId app) const;

  /// Every collective trace record in the cluster (all applications), sorted
  /// by (comm, seq, rank) — the proxy-layer span source for the Chrome trace
  /// export (trace_export.h).
  [[nodiscard]] std::vector<TraceRecord> trace_all() const;

  // --- telemetry ---------------------------------------------------------------
  /// Fabric-wide telemetry. The metrics registry is always live (engines
  /// record through it unconditionally); the span/event timeline records only
  /// while telemetry().set_enabled(true) holds — off from construction.
  [[nodiscard]] telemetry::Telemetry& telemetry() { return telemetry_; }

  /// Machine-readable JSON snapshot of the fabric: virtual time, the event
  /// loop's live-event count, the metrics registry, per-link state /
  /// allocated throughput / cumulative bytes, live flows in ascending id
  /// order, and per-communicator progress and plan-cache counts per rank.
  /// test::await prints it when an await times out.
  [[nodiscard]] std::string telemetry_snapshot();

  /// One link's slice of the telemetry snapshot, as structured data: the
  /// monitoring plane's view (administrative state plus the utilization
  /// sampler's throughput / flow-count / byte readings). Policy consumers —
  /// notably the controller's recovery confirmation — observe links through
  /// this sampler rather than poking the raw network, so what they decide on
  /// is exactly what the snapshot reports.
  struct LinkSample {
    net::LinkState state = net::LinkState::kUp;
    double capacity_fraction = 1.0;
    double throughput = 0.0;  ///< allocated rate over the link right now
    std::size_t flows = 0;    ///< flows currently crossing the link
    double bytes = 0.0;       ///< cumulative bytes carried (utilization integral)
  };
  [[nodiscard]] LinkSample sample_link(LinkId link) const;

  /// Management-path communicator teardown: destroys the communicator on
  /// every rank's proxy (after the control latency) and removes it from the
  /// registry, so policies stop planning for it. Outstanding collectives on
  /// any rank make the teardown fail loudly.
  void destroy_communicator(CommId comm);

  /// Failure injection: forcibly tear down everything an application owns —
  /// its communicators (on every rank's proxy, immediately, no control-plane
  /// grace), its in-flight transport sends, and its QoS schedules. Unlike
  /// destroy_communicator, outstanding work is ABORTED: completion callbacks
  /// of dropped collectives never fire, and peers' in-flight messages to the
  /// dead communicator are dropped on arrival. Idempotent.
  KillReport kill_app(AppId app);

  /// Install the escalation sink for transport stall reports (see
  /// ServiceContext::on_transport_stall). Pass nullptr to detach.
  void set_stall_handler(std::function<void(const StallReport&)> handler);

  // --- internal wiring ------------------------------------------------------------
  [[nodiscard]] ProxyEngine& proxy_for(GpuId gpu);
  [[nodiscard]] ServiceContext& context() { return context_; }

 private:
  struct BootstrapEntry {
    int rank;
    AppId app;
    GpuId gpu;
    std::function<void(CommId)> on_ready;
  };
  struct BootstrapState {
    int nranks = 0;
    std::vector<BootstrapEntry> joined;
  };

  void finish_bootstrap(UniqueId uid, BootstrapState state);

  cluster::Cluster cluster_;
  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<gpu::GpuRuntime> gpus_;
  ServiceContext context_;
  // Declared before services_ so engines (which hold pointers to it through
  // the context) are destroyed first.
  telemetry::Telemetry telemetry_;
  std::vector<std::unique_ptr<Service>> services_;  ///< by HostId
  std::function<CommStrategy(const CommInfo&)> strategy_provider_;

  std::unordered_map<std::uint64_t, BootstrapState> bootstraps_;
  std::unordered_map<std::uint32_t, CommInfo> comms_;
  std::unordered_map<std::uint32_t, std::uint64_t> reconfig_rounds_;  ///< per comm
  std::unordered_set<std::uint32_t> killed_comms_;  ///< tombstones from kill_app
  std::uint64_t next_unique_id_ = 1;
  std::uint32_t next_comm_id_ = 0;
};

}  // namespace mccs::svc
