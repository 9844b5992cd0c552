#include "mccs/frontend_engine.h"

#include <string>

#include "mccs/fabric.h"

namespace mccs::svc {
namespace {

/// Entries per shim command ring (bounded shared-memory queue).
constexpr std::size_t kIpcQueueCapacity = 256;

}  // namespace

gpu::DevicePtr FrontendEngine::handle_alloc(GpuId gpu, Bytes size) {
  MCCS_EXPECTS(size > 0);
  gpu::Gpu& dev = ctx_->gpus->gpu(gpu);
  // The service allocates, exports an IPC handle, and the shim opens it; the
  // tenant ends up with a device pointer it can use freely for compute while
  // the service retains access for collectives.
  const gpu::DevicePtr service_ptr = dev.allocate(size);
  const gpu::MemHandle handle = dev.export_handle(service_ptr.mem);
  const gpu::DevicePtr app_ptr = dev.open_handle(handle);
  registry_.emplace(key(gpu, app_ptr.mem), size);
  return app_ptr;
}

void FrontendEngine::handle_free(gpu::DevicePtr ptr) {
  auto it = registry_.find(key(ptr.gpu, ptr.mem));
  MCCS_CHECK(it != registry_.end(), "free of unregistered tenant buffer");
  MCCS_EXPECTS(ptr.offset == 0);
  registry_.erase(it);
  gpu::Gpu& dev = ctx_->gpus->gpu(ptr.gpu);
  dev.release(ptr.mem);  // shim closes its handle...
  dev.release(ptr.mem);  // ...then the service releases the allocation
}

bool FrontendEngine::validate(GpuId gpu, gpu::DevicePtr ptr, Bytes len) const {
  // The registry spans the host's GPUs, but the proxy that runs the command
  // reads only its own GPU's memory.
  if (ptr.gpu != gpu) return false;
  auto it = registry_.find(key(ptr.gpu, ptr.mem));
  if (it == registry_.end()) return false;
  return ptr.offset + len <= it->second;
}

void FrontendEngine::handle_collective(CommId comm, GpuId gpu,
                                       WorkRequest request) {
  const CollectiveArgs& args = request.args;
  // The shim is the tenant's own library, so nothing it sends is trusted:
  // the rank and size come from the proxy, and the rank must be this app's.
  ProxyEngine& proxy = ctx_->fabric->proxy_for(gpu);
  const CommSetup* setup = proxy.installed_rank(comm);
  if (setup == nullptr) return;
  MCCS_CHECK(setup->info->app == app_,
             "collective on another application's communicator");
  const RankBuffers buffers =
      rank_buffers(args, setup->info->nranks, setup->rank);
  MCCS_CHECK(buffers.recv == 0 || validate(gpu, args.recv, buffers.recv),
             "collective recv buffer is not a valid tenant allocation");
  MCCS_CHECK(buffers.send == 0 || validate(gpu, args.send, buffers.send),
             "collective send buffer is not a valid tenant allocation");

  if (ctx_->telemetry->enabled()) {
    // Validation + the engine hop to the proxy, as a frontend-layer span.
    telemetry::Timeline& tl = ctx_->telemetry->timeline();
    if (track_ < 0) {
      track_ = tl.track("host " + std::to_string(host_.get()),
                        "frontend app " + std::to_string(app_.get()));
    }
    const Time now = ctx_->loop->now();
    tl.span(track_, "frontend", coll::kind_name(args.kind), now,
            now + ctx_->config.engine_hop_latency,
            {{"comm", static_cast<std::int64_t>(comm.get())},
             {"gpu", static_cast<std::int64_t>(gpu.get())},
             {"bytes", static_cast<std::uint64_t>(buffers.send)}});
  }

  ctx_->loop->schedule_after(
      ctx_->config.engine_hop_latency,
      [&proxy, comm, request = std::move(request)]() mutable {
        proxy.issue_collective(comm, std::move(request));
      });
}

void FrontendEngine::handle_p2p(CommId comm, GpuId gpu, P2pRequest request) {
  const Bytes len = request.count * coll::dtype_size(request.dtype);
  MCCS_CHECK(validate(gpu, request.buffer, len),
             "P2P buffer is not a valid tenant allocation");
  ProxyEngine& proxy = ctx_->fabric->proxy_for(gpu);
  ctx_->loop->schedule_after(
      ctx_->config.engine_hop_latency,
      [&proxy, comm, request = std::move(request)]() mutable {
        proxy.issue_p2p(comm, std::move(request));
      });
}

CommandQueue<ShimCommand>& FrontendEngine::command_queue(GpuId gpu) {
  auto it = queues_.find(gpu.get());
  if (it == queues_.end()) {
    it = queues_
             .emplace(gpu.get(),
                      std::make_unique<CommandQueue<ShimCommand>>(
                          *ctx_->loop, ctx_->config.shim_to_service_latency,
                          kIpcQueueCapacity,
                          [this](ShimCommand c) { consume(std::move(c)); }))
             .first;
  }
  return *it->second;
}

void FrontendEngine::consume(ShimCommand command) {
  std::visit(
      [this](auto&& cmd) {
        using T = std::decay_t<decltype(cmd)>;
        if constexpr (std::is_same_v<T, CollectiveCommand>) {
          handle_collective(cmd.comm, cmd.gpu, std::move(cmd.request));
        } else {
          handle_p2p(cmd.comm, cmd.gpu, std::move(cmd.request));
        }
      },
      std::move(command));
}

}  // namespace mccs::svc
