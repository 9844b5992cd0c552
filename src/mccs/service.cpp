#include "mccs/service.h"

#include "mccs/fabric.h"

namespace mccs::svc {

Service::Service(ServiceContext& ctx, Fabric& fabric, HostId host)
    : ctx_(&ctx), fabric_(&fabric), host_(host) {
  const cluster::HostInfo& info = ctx_->cluster->host(host);
  transports_.reserve(info.nic_nodes.size());
  for (std::size_t nic = 0; nic < info.nic_nodes.size(); ++nic) {
    transports_.push_back(
        std::make_unique<TransportEngine>(ctx, host, static_cast<int>(nic)));
  }
  for (GpuId gpu : info.gpus) {
    proxies_.emplace(gpu.get(),
                     std::make_unique<ProxyEngine>(
                         ctx, gpu,
                         transport(ctx_->cluster->nic_index_of_gpu(gpu))));
  }
}

Shim& Service::connect(AppId app, GpuId gpu) {
  MCCS_EXPECTS(ctx_->cluster->host_of_gpu(gpu) == host_);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(app.get()) << 32) | gpu.get();
  auto it = shims_.find(key);
  if (it == shims_.end()) {
    it = shims_.emplace(key, std::make_unique<Shim>(*ctx_, *this, app, gpu)).first;
  }
  return *it->second;
}

ProxyEngine& Service::proxy(GpuId gpu) {
  auto it = proxies_.find(gpu.get());
  MCCS_EXPECTS(it != proxies_.end());
  return *it->second;
}

TransportEngine& Service::transport(int nic_index) {
  MCCS_EXPECTS(nic_index >= 0 &&
               static_cast<std::size_t>(nic_index) < transports_.size());
  return *transports_[static_cast<std::size_t>(nic_index)];
}

FrontendEngine& Service::frontend(AppId app) {
  auto it = frontends_.find(app.get());
  if (it == frontends_.end()) {
    it = frontends_
             .emplace(app.get(),
                      std::make_unique<FrontendEngine>(*ctx_, host_, app))
             .first;
  }
  return *it->second;
}

std::vector<TraceRecord> Service::collect_trace() const {
  std::vector<TraceRecord> out;
  for (const auto& [id, proxy] : proxies_) {
    const auto& t = proxy->trace();
    out.insert(out.end(), t.begin(), t.end());
  }
  return out;
}

}  // namespace mccs::svc
