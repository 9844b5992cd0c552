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
  network_->set_telemetry(&telemetry_);
  context_.proxy_for = [this](GpuId gpu) -> ProxyEngine& { return proxy_for(gpu); };
  context_.send_control = [this](std::function<void()> fn, Time extra) {
    loop_.schedule_after(context_.config.control_hop_latency + extra,
                         std::move(fn));
  };

  services_.reserve(cluster_.host_count());
  for (std::size_t h = 0; h < cluster_.host_count(); ++h) {
    services_.push_back(std::make_unique<Service>(
        context_, *this, HostId{static_cast<std::uint32_t>(h)}));
  }
}

Fabric::~Fabric() = default;

Service& Fabric::service(HostId host) {
  MCCS_EXPECTS(host.get() < services_.size());
  return *services_[host.get()];
}

Shim& Fabric::connect(AppId app, GpuId gpu) {
  return service(cluster_.host_of_gpu(gpu)).connect(app, gpu);
}

ProxyEngine& Fabric::proxy_for(GpuId gpu) {
  return service(cluster_.host_of_gpu(gpu)).proxy(gpu);
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
    BootstrapState state = std::move(bs);
    bootstraps_.erase(uid.value);
    // Rendezvous complete: after the bootstrap latency (the rank-0 control
    // ring exchange of §4.2), install the communicator everywhere.
    loop_.schedule_after(context_.config.bootstrap_latency,
                         [this, uid, state = std::move(state)]() mutable {
                           finish_bootstrap(uid, std::move(state));
                         });
  }
}

void Fabric::finish_bootstrap(UniqueId /*uid*/, BootstrapState state) {
  std::sort(state.joined.begin(), state.joined.end(),
            [](const BootstrapEntry& a, const BootstrapEntry& b) {
              return a.rank < b.rank;
            });

  CommInfo info;
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

  CommSetup setup;
  setup.id = info.id;
  setup.app = info.app;
  setup.nranks = state.nranks;
  setup.gpus = info.gpus;
  for (const BootstrapEntry& e : state.joined) {
    setup.rank = e.rank;
    proxy_for(e.gpu).install_communicator(setup, strategy);
  }
  comms_.emplace(info.id.get(), info);

  // Notify the shims (completion queue hop).
  for (BootstrapEntry& e : state.joined) {
    if (e.on_ready) {
      loop_.schedule_after(context_.config.service_to_shim_latency,
                           [cb = std::move(e.on_ready), id = info.id] { cb(id); });
    }
  }
}

std::vector<CommInfo> Fabric::list_communicators() const {
  std::vector<CommInfo> out;
  out.reserve(comms_.size());
  for (const auto& [id, info] : comms_) out.push_back(info);
  std::sort(out.begin(), out.end(),
            [](const CommInfo& a, const CommInfo& b) { return a.id < b.id; });
  return out;
}

const CommInfo& Fabric::comm_info(CommId comm) const {
  auto it = comms_.find(comm.get());
  MCCS_EXPECTS(it != comms_.end());
  return it->second;
}

const CommInfo* Fabric::find_comm_info(CommId comm) const {
  auto it = comms_.find(comm.get());
  if (it != comms_.end()) return &it->second;
  MCCS_CHECK(killed_comms_.count(comm.get()) > 0,
             "reference to an unknown communicator");
  return nullptr;
}

const CommStrategy& Fabric::strategy_of(CommId comm) {
  const CommInfo& info = comm_info(comm);
  return proxy_for(info.gpus.front()).strategy(comm);
}

void Fabric::reconfigure(CommId comm, CommStrategy strategy,
                         std::vector<Time> delays) {
  const CommInfo& info = comm_info(comm);
  MCCS_EXPECTS(delays.empty() ||
               delays.size() == static_cast<std::size_t>(info.nranks));
  check_strategy(strategy, info.nranks);
  const std::uint64_t round = ++reconfig_rounds_[comm.get()];
  const auto shared = std::make_shared<const CommStrategy>(std::move(strategy));
  for (int r = 0; r < info.nranks; ++r) {
    ProxyEngine* proxy = &proxy_for(info.gpus[static_cast<std::size_t>(r)]);
    const Time extra = delays.empty() ? 0.0 : delays[static_cast<std::size_t>(r)];
    context_.send_control([proxy, comm, round, shared] {
                            proxy->request_reconfigure(comm, round, shared);
                          },
                          extra);
  }
}

void Fabric::destroy_communicator(CommId comm) {
  for (GpuId gpu : comm_info(comm).gpus) {
    ProxyEngine* proxy = &proxy_for(gpu);
    context_.send_control([proxy, comm] { proxy->destroy_communicator(comm); },
                          0.0);
  }
  comms_.erase(comm.get());
  reconfig_rounds_.erase(comm.get());
}

void Fabric::destroy_rank(CommId comm, GpuId gpu) {
  if (killed_comms_.count(comm.get()) > 0) return;
  if (comms_.erase(comm.get()) > 0) reconfig_rounds_.erase(comm.get());
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
  for (const auto& [id, info] : comms_) {
    if (info.app == app) doomed.push_back(info.id);
  }
  std::sort(doomed.begin(), doomed.end());
  for (CommId comm : doomed) {
    const CommInfo info = comms_.at(comm.get());
    for (GpuId gpu : info.gpus) {
      report.collectives += proxy_for(gpu).abort_communicator(comm);
    }
    comms_.erase(comm.get());
    reconfig_rounds_.erase(comm.get());
    killed_comms_.insert(comm.get());
    ++report.comms;
  }

  // Cancel the app's in-flight network sends and drop its QoS gates on every
  // transport engine in the cluster.
  for (auto& svc : services_) {
    const auto& host = cluster_.host(svc->host());
    for (std::size_t nic = 0; nic < host.nic_nodes.size(); ++nic) {
      report.sends += svc->transport(static_cast<int>(nic)).abort_app(app);
    }
  }
  return report;
}

void Fabric::set_stall_handler(std::function<void(const StallReport&)> handler) {
  context_.on_transport_stall = std::move(handler);
}

void Fabric::set_traffic_schedule(AppId app, const TrafficSchedule& schedule) {
  for (auto& svc : services_) {
    const auto& host = cluster_.host(svc->host());
    for (std::size_t nic = 0; nic < host.nic_nodes.size(); ++nic) {
      svc->transport(static_cast<int>(nic)).set_schedule(app, schedule);
    }
  }
}

void Fabric::clear_traffic_schedule(AppId app) {
  for (auto& svc : services_) {
    const auto& host = cluster_.host(svc->host());
    for (std::size_t nic = 0; nic < host.nic_nodes.size(); ++nic) {
      svc->transport(static_cast<int>(nic)).clear_schedule(app);
    }
  }
}

std::vector<TraceRecord> Fabric::trace_all() const {
  std::vector<TraceRecord> out;
  for (const auto& svc : services_) {
    for (const TraceRecord& r : svc->collect_trace()) out.push_back(r);
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
  for (const CommInfo& info : list_communicators()) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(info.id.get());
    out += ",\"app\":" + std::to_string(info.app.get());
    out += ",\"nranks\":" + std::to_string(info.nranks);
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
