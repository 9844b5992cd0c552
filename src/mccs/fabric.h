#pragma once
// Fabric: one complete MCCS deployment — the simulated substrate (event
// loop, network, GPUs), the service's engines, the communicator bootstrap
// rendezvous, and the provider-facing management API of §4.3 that external
// controllers (src/policy) drive:
//
//   * list communicators with their GPU placements and current strategies;
//   * reconfigure a communicator's strategy at runtime (delivered to every
//     rank's proxy with independent control-plane delays — the Fig. 4 race);
//   * install per-tenant traffic schedules on the transport engines;
//   * retrieve per-application collective traces.
//
// The Fabric is the deployment's one registry, so each fact is stored once.
// It owns every engine in tables addressed the way callers name them: a
// proxy per GPU, a transport per (host, NIC), a frontend per (application,
// host) and a shim per (application, GPU). The per-host daemon of §3 stays a
// concept: engines keep their host, and each proxy sends through the
// transport of its GPU's NIC (Cluster::nic_index_of_gpu). Each communicator
// has one immutable CommInfo, shared by the registry and every rank's proxy,
// and the registry answers whether a communicator with no rank on a GPU is
// gone or was killed (DESIGN.md §8).

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "common/ids.h"
#include "common/units.h"
#include "gpusim/runtime.h"
#include "mccs/context.h"
#include "mccs/frontend_engine.h"
#include "mccs/proxy_engine.h"
#include "mccs/shim.h"
#include "mccs/strategy.h"
#include "mccs/trace.h"
#include "mccs/transport_engine.h"
#include "netsim/network.h"
#include "sim/event_loop.h"

namespace mccs::svc {

/// The registry's communicator records, ascending id (list_communicators).
using CommRecords = std::vector<std::shared_ptr<const CommInfo>>;

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

  /// Attach an application process on `gpu`: its shim, built on first
  /// connect with the application's frontend on the GPU's host.
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
  /// own rank's proxy state, which a kill meanwhile has already done.
  void destroy_rank(CommId comm, GpuId gpu);

  // --- management API (§4.3) --------------------------------------------------------
  /// Every live communicator's one record, ascending id. The records are
  /// shared, not copied, and immutable; holding one keeps it valid after
  /// its communicator leaves the registry.
  [[nodiscard]] CommRecords list_communicators() const;
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
  /// order, and every communicator (the provider's one communicator view):
  /// placement, installed strategy (algorithm, channel orders, explicit
  /// route count), and progress and plan-cache counts per rank.
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
  /// grace), its rendezvous that reached the Fabric, its in-flight transport
  /// sends, and its QoS schedules. Unlike destroy_communicator, outstanding
  /// work is ABORTED: completion callbacks of dropped collectives never
  /// fire, and peers' in-flight messages to the dead communicator are
  /// dropped on arrival. A rendezvous installs nothing and fires no
  /// on_ready, and a join that lands after the kill starts a new one.
  /// Idempotent.
  KillReport kill_app(AppId app);

  /// Install the escalation sink for transport stall reports (see
  /// ServiceContext::on_transport_stall). Pass nullptr to detach.
  void set_stall_handler(std::function<void(const StallReport&)> handler);

  // --- engines --------------------------------------------------------------------
  /// The proxy engine of `gpu`: an index into the table of every GPU's.
  [[nodiscard]] ProxyEngine& proxy_for(GpuId gpu) {
    MCCS_EXPECTS(gpu.get() < proxies_.size());
    return *proxies_[gpu.get()];
  }
  /// The frontend of `app` on `host`, built on first use.
  [[nodiscard]] FrontendEngine& frontend(AppId app, HostId host);

  // --- communicator liveness (the proxies' rules, DESIGN.md §8) -------------
  /// `comm` was installed and has left the registry: destroyed by its
  /// tenant or the provider, or killed. Ids are dense and never reused, so
  /// this needs no record per communicator.
  [[nodiscard]] bool comm_gone(CommId comm) const {
    return comm.get() < next_comm_id_ && comms_.count(comm.get()) == 0;
  }
  /// The provider killed `comm` (kill_app).
  [[nodiscard]] bool comm_killed(CommId comm) const {
    return killed_comms_.count(comm.get()) > 0;
  }

 private:
  struct BootstrapEntry {
    int rank;
    AppId app;
    GpuId gpu;
    std::function<void(CommId)> on_ready;
  };
  /// A rendezvous from its first join until its install: complete once all
  /// `nranks` joined, then installed bootstrap_latency later.
  struct BootstrapState {
    int nranks = 0;
    std::vector<BootstrapEntry> joined;
  };
  /// A registry entry: the communicator's one record, and the
  /// reconfiguration rounds sent for it so far.
  struct CommEntry {
    std::shared_ptr<const CommInfo> info;
    std::uint64_t reconfig_rounds = 0;
  };

  void finish_bootstrap(UniqueId uid);

  cluster::Cluster cluster_;
  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<gpu::GpuRuntime> gpus_;
  ServiceContext context_;
  // Declared before the engine tables so engines (which hold pointers to it
  // through the context) are destroyed first.
  telemetry::Telemetry telemetry_;
  std::vector<std::unique_ptr<TransportEngine>> transports_;  ///< by (host, NIC)
  std::vector<std::unique_ptr<ProxyEngine>> proxies_;  ///< by GpuId
  std::unordered_map<std::uint64_t, std::unique_ptr<FrontendEngine>>
      frontends_;  ///< by (app, host)
  std::unordered_map<std::uint64_t, std::unique_ptr<Shim>> shims_;  ///< by (app, GPU)
  std::function<CommStrategy(const CommInfo&)> strategy_provider_;

  std::unordered_map<std::uint64_t, BootstrapState> bootstraps_;  ///< by uid
  std::unordered_map<std::uint32_t, CommEntry> comms_;
  std::unordered_set<std::uint32_t> killed_comms_;  ///< one per kill_app'd comm
  std::uint64_t next_unique_id_ = 1;
  std::uint32_t next_comm_id_ = 0;
};

}  // namespace mccs::svc
