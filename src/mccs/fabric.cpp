#include "mccs/fabric.h"

#include <algorithm>
#include <string>

#include "telemetry/json.h"

namespace mccs::svc {
namespace {

/// A strategy every rank of an `nranks` communicator can execute: at least
/// one channel, each ring over exactly the communicator's ranks (a RingOrder
/// is a permutation of 0..size-1 by construction, so its size decides).
void check_strategy(const CommStrategy& strategy, int nranks) {
  MCCS_CHECK(strategy.num_channels() >= 1, "strategy has no channels");
  for (const coll::RingOrder& order : strategy.channel_orders) {
    MCCS_CHECK(order.size() == static_cast<std::size_t>(nranks),
               "channel order does not cover the communicator's ranks");
  }
}

/// Key of an (application, host or GPU) pair in the engine maps.
std::uint64_t app_key(AppId app, std::uint32_t where) {
  return (static_cast<std::uint64_t>(app.get()) << 32) | where;
}

}  // namespace

Fabric::Fabric(cluster::Cluster cluster)
    : Fabric(std::move(cluster), Options{}) {}

Fabric::Fabric(cluster::Cluster cluster, Options options)
    : cluster_(std::move(cluster)) {
  network_ = std::make_unique<net::Network>(loop_, cluster_.topology());
  gpus_ = std::make_unique<gpu::GpuRuntime>(loop_, cluster_.gpu_count(),
                                            options.gpu_config);

  context_.loop = &loop_;
  context_.network = network_.get();
  context_.gpus = gpus_.get();
  context_.cluster = &cluster_;
  context_.config = options.config;
  context_.seed = options.seed;
  context_.telemetry = &telemetry_;
  context_.fabric = this;
  network_->set_telemetry(&telemetry_);

  // Host by host, its transports and then its GPUs' proxies, each handed the
  // transport of the NIC its traffic leaves through.
  proxies_.resize(cluster_.gpu_count());
  for (std::size_t h = 0; h < cluster_.host_count(); ++h) {
    const HostId host{static_cast<std::uint32_t>(h)};
    const cluster::HostInfo& info = cluster_.host(host);
    const std::size_t first_nic = transports_.size();
    for (std::size_t nic = 0; nic < info.nic_nodes.size(); ++nic) {
      transports_.push_back(std::make_unique<TransportEngine>(
          context_, host, static_cast<int>(nic)));
    }
    for (GpuId gpu : info.gpus) {
      const auto nic = static_cast<std::size_t>(cluster_.nic_index_of_gpu(gpu));
      proxies_[gpu.get()] = std::make_unique<ProxyEngine>(
          context_, gpu, *transports_[first_nic + nic]);
    }
  }
}

Fabric::~Fabric() = default;

Shim& Fabric::connect(AppId app, GpuId gpu) {
  const HostId host = cluster_.host_of_gpu(gpu);
  std::unique_ptr<Shim>& shim = shims_[app_key(app, gpu.get())];
  if (shim == nullptr) {
    shim = std::make_unique<Shim>(context_, app, gpu, frontend(app, host),
                                  proxy_for(gpu));
  }
  return *shim;
}

FrontendEngine& Fabric::frontend(AppId app, HostId host) {
  MCCS_EXPECTS(host.get() < cluster_.host_count());
  std::unique_ptr<FrontendEngine>& fe = frontends_[app_key(app, host.get())];
  if (fe == nullptr) fe = std::make_unique<FrontendEngine>(context_, host, app);
  return *fe;
}

UniqueId Fabric::new_unique_id() { return UniqueId{next_unique_id_++}; }

void Fabric::set_strategy_provider(
    std::function<CommStrategy(const CommInfo&)> provider) {
  strategy_provider_ = std::move(provider);
}

void Fabric::bootstrap_join(UniqueId uid, int nranks, int rank, AppId app,
                            GpuId gpu, std::function<void(CommId)> on_ready) {
  MCCS_EXPECTS(uid.valid());
  MCCS_EXPECTS(nranks >= 1 && rank >= 0 && rank < nranks);
  BootstrapState& bs = bootstraps_[uid.value];
  if (bs.joined.empty()) {
    bs.nranks = nranks;
  } else {
    MCCS_CHECK(bs.nranks == nranks, "ranks disagree on communicator size");
  }
  for (const BootstrapEntry& e : bs.joined) {
    MCCS_CHECK(e.rank != rank, "rank joined the same rendezvous twice");
  }
  bs.joined.push_back(BootstrapEntry{rank, app, gpu, std::move(on_ready)});

  if (static_cast<int>(bs.joined.size()) == bs.nranks) {
    // Rendezvous complete: after the bootstrap latency (the rank-0 control
    // ring exchange of §4.2), install the communicator everywhere, unless a
    // kill drops the rendezvous first.
    loop_.schedule_after(context_.config.bootstrap_latency,
                         [this, uid] { finish_bootstrap(uid); });
  }
}

void Fabric::finish_bootstrap(UniqueId uid) {
  auto it = bootstraps_.find(uid.value);
  if (it == bootstraps_.end()) return;  // its application was killed
  BootstrapState state = std::move(it->second);
  bootstraps_.erase(it);
  std::sort(state.joined.begin(), state.joined.end(),
            [](const BootstrapEntry& a, const BootstrapEntry& b) {
              return a.rank < b.rank;
            });

  auto record = std::make_shared<CommInfo>();
  CommInfo& info = *record;
  info.id = CommId{next_comm_id_++};
  info.app = state.joined.front().app;
  info.nranks = state.nranks;
  info.gpus.reserve(state.joined.size());
  for (const BootstrapEntry& e : state.joined) {
    MCCS_CHECK(e.app == info.app, "communicator spans applications");
    info.gpus.push_back(e.gpu);
  }

  auto strategy = std::make_shared<const CommStrategy>(
      strategy_provider_ ? strategy_provider_(info)
                         : nccl_default_strategy(info.gpus, cluster_));
  check_strategy(*strategy, info.nranks);

  for (const BootstrapEntry& e : state.joined) {
    proxy_for(e.gpu).install_communicator(CommSetup{record, e.rank}, strategy);
  }
  comms_.emplace(info.id.get(), CommEntry{record});

  // Notify the shims (completion queue hop).
  for (BootstrapEntry& e : state.joined) {
    if (e.on_ready) {
      loop_.schedule_after(context_.config.service_to_shim_latency,
                           [cb = std::move(e.on_ready), id = info.id] { cb(id); });
    }
  }
}

CommRecords Fabric::list_communicators() const {
  CommRecords out;
  out.reserve(comms_.size());
  for (const auto& [id, entry] : comms_) out.push_back(entry.info);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  return out;
}

const CommInfo& Fabric::comm_info(CommId comm) const {
  auto it = comms_.find(comm.get());
  MCCS_EXPECTS(it != comms_.end());
  return *it->second.info;
}

const CommInfo* Fabric::find_comm_info(CommId comm) const {
  auto it = comms_.find(comm.get());
  if (it != comms_.end()) return it->second.info.get();
  MCCS_CHECK(comm_killed(comm), "reference to an unknown communicator");
  return nullptr;
}

const CommStrategy& Fabric::strategy_of(CommId comm) {
  const CommInfo& info = comm_info(comm);
  return proxy_for(info.gpus.front()).strategy(comm);
}

void Fabric::reconfigure(CommId comm, CommStrategy strategy,
                         std::vector<Time> delays) {
  auto it = comms_.find(comm.get());
  MCCS_EXPECTS(it != comms_.end());
  const CommInfo& info = *it->second.info;
  MCCS_EXPECTS(delays.empty() ||
               delays.size() == static_cast<std::size_t>(info.nranks));
  check_strategy(strategy, info.nranks);
  const std::uint64_t round = ++it->second.reconfig_rounds;
  const auto shared = std::make_shared<const CommStrategy>(std::move(strategy));
  for (int r = 0; r < info.nranks; ++r) {
    ProxyEngine* proxy = &proxy_for(info.gpus[static_cast<std::size_t>(r)]);
    const Time extra = delays.empty() ? 0.0 : delays[static_cast<std::size_t>(r)];
    loop_.schedule_after(context_.config.control_hop_latency + extra,
                         [proxy, comm, round, shared] {
                           proxy->request_reconfigure(comm, round, shared);
                         });
  }
}

void Fabric::destroy_communicator(CommId comm) {
  for (GpuId gpu : comm_info(comm).gpus) {
    ProxyEngine* proxy = &proxy_for(gpu);
    loop_.schedule_after(context_.config.control_hop_latency,
                         [proxy, comm] { proxy->destroy_communicator(comm); });
  }
  comms_.erase(comm.get());
}

void Fabric::destroy_rank(CommId comm, GpuId gpu) {
  comms_.erase(comm.get());
  proxy_for(gpu).destroy_communicator(comm);
}

KillReport Fabric::kill_app(AppId app) {
  KillReport report;
  report.app = app;

  // The whole teardown is one mutation epoch: every in-flight flow of the
  // tenant leaves the network at this instant, and the survivors' rates
  // re-solve once at batch close (the per-engine abort_app batches nest
  // under this one). Tombstones, trace drops, and the kill report are
  // unaffected — only the solve is coalesced.
  net::Network::SolveBatch batch(*network_);

  // Abort every communicator of the app on every rank's proxy. A host crash
  // has no control-plane grace: the state vanishes now, and peers discover it
  // by their in-flight messages being dropped on arrival.
  std::vector<CommId> doomed;
  for (const auto& [id, entry] : comms_) {
    if (entry.info->app == app) doomed.push_back(entry.info->id);
  }
  std::sort(doomed.begin(), doomed.end());
  for (CommId comm : doomed) {
    auto it = comms_.find(comm.get());
    for (GpuId gpu : it->second.info->gpus) {
      report.collectives += proxy_for(gpu).abort_communicator(comm);
    }
    comms_.erase(it);
    killed_comms_.insert(comm.get());
    ++report.comms;
  }

  // Its rendezvous, complete or not, never install: a complete one's
  // pending finish_bootstrap finds nothing, and a join that lands later
  // starts a rendezvous of its own.
  std::erase_if(bootstraps_, [app](const auto& entry) {
    const std::vector<BootstrapEntry>& joined = entry.second.joined;
    return std::any_of(joined.begin(), joined.end(),
                       [app](const BootstrapEntry& e) { return e.app == app; });
  });

  // Cancel the app's in-flight network sends and drop its QoS gates on every
  // transport engine in the cluster.
  for (auto& transport : transports_) report.sends += transport->abort_app(app);
  return report;
}

void Fabric::set_stall_handler(std::function<void(const StallReport&)> handler) {
  context_.on_transport_stall = std::move(handler);
}

void Fabric::set_traffic_schedule(AppId app, const TrafficSchedule& schedule) {
  for (auto& transport : transports_) transport->set_schedule(app, schedule);
}

void Fabric::clear_traffic_schedule(AppId app) {
  for (auto& transport : transports_) transport->clear_schedule(app);
}

std::vector<TraceRecord> Fabric::trace_all() const {
  std::vector<TraceRecord> out;
  for (const auto& proxy : proxies_) {
    const std::vector<TraceRecord>& t = proxy->trace();
    out.insert(out.end(), t.begin(), t.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceRecord& a, const TraceRecord& b) {
    if (a.comm != b.comm) return a.comm < b.comm;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.rank < b.rank;
  });
  return out;
}

Fabric::LinkSample Fabric::sample_link(LinkId link) const {
  LinkSample s;
  s.state = network_->link_state(link);
  s.capacity_fraction = network_->link_capacity_fraction(link);
  s.throughput = network_->link_throughput(link);
  s.flows = network_->link_flow_count(link);
  s.bytes = network_->link_bytes(link);
  return s;
}

std::string Fabric::telemetry_snapshot() {
  std::string out;
  out.reserve(4096);
  out += "{\"time\":";
  telemetry::append_double(out, loop_.now());
  out += ",\"pending_events\":" + std::to_string(loop_.size());
  out += ",\"metrics\":";
  out += telemetry_.metrics().to_json();

  out += ",\"links\":[";
  const net::Topology& topo = network_->topology();
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const LinkSample s = sample_link(LinkId{static_cast<std::uint32_t>(l)});
    if (l > 0) out += ',';
    out += "{\"id\":" + std::to_string(l);
    out += ",\"state\":\"";
    switch (s.state) {
      case net::LinkState::kUp: out += "up"; break;
      case net::LinkState::kDegraded: out += "degraded"; break;
      case net::LinkState::kDown: out += "down"; break;
    }
    out += "\",\"capacity_fraction\":";
    telemetry::append_double(out, s.capacity_fraction);
    out += ",\"throughput\":";
    telemetry::append_double(out, s.throughput);
    out += ",\"flows\":" + std::to_string(s.flows);
    out += ",\"bytes\":";
    telemetry::append_double(out, s.bytes);
    out += '}';
  }
  out += "],\"flows\":[";
  bool first = true;
  for (FlowId f : network_->active_flows()) {
    const net::FlowSpec& spec = network_->flow_spec(f);
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(f.get());
    out += ",\"app\":" + std::to_string(spec.app.get());
    out += ",\"remaining\":" + std::to_string(network_->flow_remaining(f));
    out += ",\"rate\":";
    telemetry::append_double(out, network_->flow_rate(f));
    out += '}';
  }
  out += "],\"allocation_errors\":" +
         std::to_string(network_->allocation_error_count());

  out += ",\"comms\":[";
  first = true;
  for (const auto& record : list_communicators()) {
    const CommInfo& info = *record;
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(info.id.get());
    out += ",\"app\":" + std::to_string(info.app.get());
    out += ",\"nranks\":" + std::to_string(info.nranks);
    const CommStrategy& strategy = proxy_for(info.gpus.front()).strategy(info.id);
    out += ",\"algorithm\":\"";
    out += coll::algorithm_name(strategy.algorithm);
    out += "\",\"channel_orders\":[";
    for (std::size_t c = 0; c < strategy.channel_orders.size(); ++c) {
      if (c > 0) out += ',';
      out += '[';
      const std::vector<int>& order = strategy.channel_orders[c].order();
      for (std::size_t p = 0; p < order.size(); ++p) {
        if (p > 0) out += ',';
        out += std::to_string(order[p]);
      }
      out += ']';
    }
    out += "],\"explicit_routes\":" + std::to_string(strategy.routes.size());
    out += ",\"ranks\":[";
    for (std::size_t r = 0; r < info.gpus.size(); ++r) {
      const GpuId gpu = info.gpus[r];
      ProxyEngine& p = proxy_for(gpu);
      if (r > 0) out += ',';
      out += "{\"gpu\":" + std::to_string(gpu.get());
      out += ",\"launched\":" + std::to_string(p.last_launched(info.id));
      out += ",\"completed\":" + std::to_string(p.last_completed(info.id));
      out += ",\"active\":" + std::to_string(p.active_count(info.id));
      out += ",\"held\":" + std::to_string(p.held_count(info.id));
      const CollPlanCache::Stats plans = p.plan_cache_stats(info.id);
      out += ",\"plan_hits\":" + std::to_string(plans.hits);
      out += ",\"plan_misses\":" + std::to_string(plans.misses);
      out += ",\"plan_invalidations\":" + std::to_string(plans.invalidations);
      out += ",\"reconfig\":";
      out += p.reconfig_in_progress(info.id) ? "true" : "false";
      out += '}';
    }
    out += "]}";
  }
  out += "],\"timeline_events\":" +
         std::to_string(telemetry_.timeline().event_count());
  out += '}';
  return out;
}

std::vector<TraceRecord> Fabric::trace(AppId app) const {
  std::vector<TraceRecord> out = trace_all();
  std::erase_if(out, [app](const TraceRecord& r) { return r.app != app; });
  return out;
}

}  // namespace mccs::svc
