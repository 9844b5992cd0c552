#pragma once
// MCCS shim library (§4.1): the thin, NCCL-shaped client linked into tenant
// applications. It forwards memory management and collective invocations to
// the MCCS service over the (latency-modelled) shared-memory command queue,
// and wires up the event-based stream synchronisation:
//
//   issue:   record `ready` on the app stream  ->  comm stream waits on it
//   finish:  comm stream records `done`        ->  app stream waits on it
//
// so the tenant keeps ordinary CUDA stream semantics while the service owns
// the communication.

#include <functional>

#include "common/ids.h"
#include "gpusim/runtime.h"
#include "mccs/api.h"
#include "mccs/context.h"
#include "mccs/frontend_engine.h"

namespace mccs::svc {

class Shim {
 public:
  /// Built by Fabric::connect: the application's frontend on the GPU's host,
  /// which owns the shim's command queue, and the GPU's proxy.
  Shim(ServiceContext& ctx, AppId app, GpuId gpu, FrontendEngine& frontend,
       ProxyEngine& proxy);

  Shim(const Shim&) = delete;
  Shim& operator=(const Shim&) = delete;

  [[nodiscard]] AppId app() const { return app_; }
  [[nodiscard]] GpuId gpu() const { return gpu_; }

  // --- memory (redirected to the service) ------------------------------------
  gpu::DevicePtr alloc(Bytes size);
  void free(gpu::DevicePtr ptr);

  /// An application-owned stream on this rank's GPU (plain CUDA analogue;
  /// not visible to the service except through shared events).
  gpu::Stream& create_app_stream();

  // --- communicators -----------------------------------------------------------
  /// Join a communicator rendezvous. `on_ready(comm)` fires once every rank
  /// has joined and the service installed the communicator.
  void comm_init_rank(UniqueId uid, int nranks, int rank,
                      std::function<void(CommId)> on_ready);
  /// Leave a communicator (Fabric::destroy_rank, after the IPC hop). The
  /// first rank to leave removes it from the provider's registry. Throws
  /// ContractViolation at the call when this GPU holds no rank of `comm`,
  /// the rank is another application's, or this rank already asked to
  /// leave.
  void comm_destroy(CommId comm);

  // --- collectives ---------------------------------------------------------------
  // A collective or P2P call on a communicator the provider killed is
  // dropped: its callback never fires, like the work in flight at the kill,
  // and the app stream is left untouched. A communicator that is unknown,
  // another application's, or has no rank on this GPU, or a count of zero,
  // throws ContractViolation at the call, with nothing enqueued.

  /// Generic entry point; the named wrappers below are the public API.
  void collective(CommId comm, CollectiveArgs args, gpu::Stream& app_stream,
                  CompletionCallback on_complete = {});

  void all_reduce(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                  std::size_t count, coll::DataType dtype, coll::ReduceOp op,
                  gpu::Stream& stream, CompletionCallback on_complete = {});
  void all_gather(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                  std::size_t send_count, coll::DataType dtype,
                  gpu::Stream& stream, CompletionCallback on_complete = {});
  void reduce_scatter(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                      std::size_t recv_count, coll::DataType dtype,
                      coll::ReduceOp op, gpu::Stream& stream,
                      CompletionCallback on_complete = {});
  void broadcast(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                 std::size_t count, coll::DataType dtype, int root,
                 gpu::Stream& stream, CompletionCallback on_complete = {});
  void reduce(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
              std::size_t count, coll::DataType dtype, coll::ReduceOp op,
              int root, gpu::Stream& stream, CompletionCallback on_complete = {});
  void all_to_all(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                  std::size_t count_per_peer, coll::DataType dtype,
                  gpu::Stream& stream, CompletionCallback on_complete = {});

  void gather(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
              std::size_t count, coll::DataType dtype, int root,
              gpu::Stream& stream, CompletionCallback on_complete = {});
  void scatter(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
               std::size_t count, coll::DataType dtype, int root,
               gpu::Stream& stream, CompletionCallback on_complete = {});

  // --- point-to-point (§5) ----------------------------------------------------
  /// Send `count` elements to `peer`; pairs with the peer's k-th recv from
  /// this rank. Independent of the collective sequence space.
  void send(CommId comm, int peer, gpu::DevicePtr buffer, std::size_t count,
            coll::DataType dtype, gpu::Stream& stream,
            CompletionCallback on_complete = {});
  /// Receive `count` elements from `peer`.
  void recv(CommId comm, int peer, gpu::DevicePtr buffer, std::size_t count,
            coll::DataType dtype, gpu::Stream& stream,
            CompletionCallback on_complete = {});

 private:
  /// The registry entry of `comm` after the call-site checks above; null
  /// when the provider killed it.
  const CommInfo* own_comm(CommId comm) const;
  /// send and recv; `peer` must be another rank of the communicator.
  void p2p(CommId comm, int peer, bool is_send, gpu::DevicePtr buffer,
           std::size_t count, coll::DataType dtype, gpu::Stream& stream,
           CompletionCallback on_complete);

  ServiceContext* ctx_;
  AppId app_;
  GpuId gpu_;
  FrontendEngine* frontend_;
  CommandQueue<ShimCommand>* queue_;
  ProxyEngine* proxy_;
};

}  // namespace mccs::svc
