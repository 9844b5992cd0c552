#pragma once
// Frontend engine (§4.1): one per application per host. Terminates the
// shim's shared-memory command queue, owns the application's GPU memory
// allocations (allocation is redirected to the service, which exports an
// inter-process handle back to the tenant), and validates every buffer a
// collective names before forwarding the work request to the proxy engine —
// the isolation boundary that makes MCCS safe in a multi-tenant cloud.

#include <memory>
#include <unordered_map>
#include <variant>

#include "common/ids.h"
#include "gpusim/runtime.h"
#include "mccs/api.h"
#include "mccs/context.h"
#include "mccs/ipc.h"
#include "mccs/proxy_engine.h"

namespace mccs::svc {

/// Commands a shim posts over its shared-memory ring.
struct CollectiveCommand {
  CommId comm;
  GpuId gpu;
  WorkRequest request;
};
struct P2pCommand {
  CommId comm;
  GpuId gpu;
  P2pRequest request;
};
using ShimCommand = std::variant<CollectiveCommand, P2pCommand>;

class FrontendEngine {
 public:
  FrontendEngine(ServiceContext& ctx, HostId host, AppId app)
      : ctx_(&ctx), host_(host), app_(app) {}

  FrontendEngine(const FrontendEngine&) = delete;
  FrontendEngine& operator=(const FrontendEngine&) = delete;

  [[nodiscard]] AppId app() const { return app_; }

  /// Allocate device memory on behalf of the tenant; returns the device
  /// pointer obtained by opening the exported IPC handle (§4.1).
  gpu::DevicePtr handle_alloc(GpuId gpu, Bytes size);

  /// Deallocate: the shim closes its side of the handle, then the service
  /// releases the allocation.
  void handle_free(gpu::DevicePtr ptr);

  /// Validate a tenant buffer for a command on `gpu`: it must come from an
  /// allocation this frontend made for this app on that GPU, and
  /// [offset, offset+len) must be in range.
  [[nodiscard]] bool validate(GpuId gpu, gpu::DevicePtr ptr, Bytes len) const;

  /// Validate the extents rank_buffers gives for the rank `gpu`'s proxy has
  /// installed, and hand the request to that proxy (after the engine-hop
  /// latency). A command for a communicator killed meanwhile is dropped.
  void handle_collective(CommId comm, GpuId gpu, WorkRequest request);

  /// Validate and forward a point-to-point operation.
  void handle_p2p(CommId comm, GpuId gpu, P2pRequest request);

  /// The shared-memory command ring for the shim bound to `gpu`, created
  /// when the Fabric builds that shim. The frontend is the consumer:
  /// commands drain one IPC latency after the ring goes non-empty.
  CommandQueue<ShimCommand>& command_queue(GpuId gpu);

 private:
  static std::uint64_t key(GpuId gpu, MemId mem) {
    return (static_cast<std::uint64_t>(gpu.get()) << 32) | mem.get();
  }

  void consume(ShimCommand command);

  ServiceContext* ctx_;
  HostId host_;
  AppId app_;
  int track_ = -1;  ///< telemetry track, lazily interned (enabled mode only)
  std::unordered_map<std::uint64_t, Bytes> registry_;  ///< size by key()
  std::unordered_map<std::uint32_t, std::unique_ptr<CommandQueue<ShimCommand>>>
      queues_;  ///< by GpuId
};

}  // namespace mccs::svc
