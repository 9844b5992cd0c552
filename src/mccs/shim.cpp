#include "mccs/shim.h"

#include <algorithm>

#include "mccs/fabric.h"

namespace mccs::svc {

Shim::Shim(ServiceContext& ctx, AppId app, GpuId gpu, FrontendEngine& frontend,
           ProxyEngine& proxy)
    : ctx_(&ctx), app_(app), gpu_(gpu), frontend_(&frontend),
      queue_(&frontend.command_queue(gpu)), proxy_(&proxy) {}

gpu::DevicePtr Shim::alloc(Bytes size) {
  // Control-path operation: routed through the frontend synchronously (the
  // round-trip latency is irrelevant to the experiments, which measure the
  // collective datapath).
  return frontend_->handle_alloc(gpu_, size);
}

void Shim::free(gpu::DevicePtr ptr) { frontend_->handle_free(ptr); }

gpu::Stream& Shim::create_app_stream() {
  return ctx_->gpus->gpu(gpu_).create_stream();
}

void Shim::comm_init_rank(UniqueId uid, int nranks, int rank,
                          std::function<void(CommId)> on_ready) {
  Fabric& fabric = *ctx_->fabric;
  ctx_->loop->schedule_after(
      ctx_->config.shim_to_service_latency,
      [&fabric, uid, nranks, rank, app = app_, gpu = gpu_,
       on_ready = std::move(on_ready)]() mutable {
        fabric.bootstrap_join(uid, nranks, rank, app, gpu, std::move(on_ready));
      });
}

void Shim::comm_destroy(CommId comm) {
  // Checked against this GPU's installed rank, not the registry: the first
  // rank to leave unregisters the communicator, and the rest must still be
  // able to leave. A communicator the provider killed is dropped. The rank
  // lives until the destroy runs, so its mark refuses a second call.
  const CommSetup* setup = proxy_->installed_rank(comm);
  if (setup == nullptr) return;
  MCCS_CHECK(setup->info->app == app_, "communicator of another application");
  proxy_->mark_destroy_requested(comm);
  Fabric& fabric = *ctx_->fabric;
  ctx_->loop->schedule_after(
      ctx_->config.shim_to_service_latency,
      [&fabric, comm, gpu = gpu_] { fabric.destroy_rank(comm, gpu); });
}

const CommInfo* Shim::own_comm(CommId comm) const {
  const CommInfo* info = ctx_->fabric->find_comm_info(comm);
  if (info == nullptr) return nullptr;
  MCCS_CHECK(info->app == app_, "communicator of another application");
  MCCS_CHECK(std::find(info->gpus.begin(), info->gpus.end(), gpu_) !=
                 info->gpus.end(),
             "communicator has no rank on this GPU");
  return info;
}

void Shim::collective(CommId comm, CollectiveArgs args, gpu::Stream& app_stream,
                      CompletionCallback on_complete) {
  MCCS_EXPECTS(app_stream.device() == gpu_);
  if (own_comm(comm) == nullptr) return;
  MCCS_CHECK(args.count > 0, "zero-count collective");
  gpu::Gpu& dev = ctx_->gpus->gpu(gpu_);

  // Dependency capture (§4.1): the collective must wait for compute already
  // enqueued on the app stream; subsequent app-stream work must wait for the
  // collective. Events are shareable across the process boundary.
  WorkRequest req;
  req.args = args;
  req.ready_event = dev.create_event();
  req.done_event = dev.create_event();
  req.on_complete = std::move(on_complete);
  app_stream.record_event(req.ready_event);
  app_stream.wait_event(req.done_event);

  CollectiveCommand cmd;
  cmd.comm = comm;
  cmd.gpu = gpu_;
  cmd.request = std::move(req);
  queue_->push(std::move(cmd));
}

void Shim::all_reduce(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                      std::size_t count, coll::DataType dtype, coll::ReduceOp op,
                      gpu::Stream& stream, CompletionCallback on_complete) {
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kAllReduce;
  a.send = send;
  a.recv = recv;
  a.count = count;
  a.dtype = dtype;
  a.op = op;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::all_gather(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                      std::size_t send_count, coll::DataType dtype,
                      gpu::Stream& stream, CompletionCallback on_complete) {
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kAllGather;
  a.send = send;
  a.recv = recv;
  a.count = send_count;
  a.dtype = dtype;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::reduce_scatter(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                          std::size_t recv_count, coll::DataType dtype,
                          coll::ReduceOp op, gpu::Stream& stream,
                          CompletionCallback on_complete) {
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kReduceScatter;
  a.send = send;
  a.recv = recv;
  a.count = recv_count;
  a.dtype = dtype;
  a.op = op;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::broadcast(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                     std::size_t count, coll::DataType dtype, int root,
                     gpu::Stream& stream, CompletionCallback on_complete) {
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kBroadcast;
  a.send = send;
  a.recv = recv;
  a.count = count;
  a.dtype = dtype;
  a.root = root;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::reduce(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                  std::size_t count, coll::DataType dtype, coll::ReduceOp op,
                  int root, gpu::Stream& stream, CompletionCallback on_complete) {
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kReduce;
  a.send = send;
  a.recv = recv;
  a.count = count;
  a.dtype = dtype;
  a.op = op;
  a.root = root;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::all_to_all(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                      std::size_t count_per_peer, coll::DataType dtype,
                      gpu::Stream& stream, CompletionCallback on_complete) {
  MCCS_EXPECTS(!(send == recv));  // blocks move between different indices
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kAllToAll;
  a.send = send;
  a.recv = recv;
  a.count = count_per_peer;
  a.dtype = dtype;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::gather(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                  std::size_t count, coll::DataType dtype, int root,
                  gpu::Stream& stream, CompletionCallback on_complete) {
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kGather;
  a.send = send;
  a.recv = recv;
  a.count = count;
  a.dtype = dtype;
  a.root = root;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::scatter(CommId comm, gpu::DevicePtr send, gpu::DevicePtr recv,
                   std::size_t count, coll::DataType dtype, int root,
                   gpu::Stream& stream, CompletionCallback on_complete) {
  CollectiveArgs a;
  a.kind = coll::CollectiveKind::kScatter;
  a.send = send;
  a.recv = recv;
  a.count = count;
  a.dtype = dtype;
  a.root = root;
  collective(comm, a, stream, std::move(on_complete));
}

void Shim::send(CommId comm, int peer, gpu::DevicePtr buffer, std::size_t count,
                coll::DataType dtype, gpu::Stream& stream,
                CompletionCallback on_complete) {
  p2p(comm, peer, true, buffer, count, dtype, stream, std::move(on_complete));
}

void Shim::recv(CommId comm, int peer, gpu::DevicePtr buffer, std::size_t count,
                coll::DataType dtype, gpu::Stream& stream,
                CompletionCallback on_complete) {
  p2p(comm, peer, false, buffer, count, dtype, stream, std::move(on_complete));
}

void Shim::p2p(CommId comm, int peer, bool is_send, gpu::DevicePtr buffer,
               std::size_t count, coll::DataType dtype, gpu::Stream& stream,
               CompletionCallback on_complete) {
  MCCS_EXPECTS(stream.device() == gpu_);
  const CommInfo* info = own_comm(comm);
  if (info == nullptr) return;
  // A GPU holds at most one rank of a communicator, so a peer on this GPU is
  // the caller itself.
  MCCS_CHECK(peer >= 0 && peer < info->nranks &&
                 info->gpus[static_cast<std::size_t>(peer)] != gpu_,
             "P2P peer is not another rank of the communicator");
  MCCS_CHECK(count > 0, "zero-count send or recv");
  gpu::Gpu& dev = ctx_->gpus->gpu(gpu_);
  P2pRequest req;
  req.peer = peer;
  req.is_send = is_send;
  req.buffer = buffer;
  req.count = count;
  req.dtype = dtype;
  req.ready_event = dev.create_event();
  req.done_event = dev.create_event();
  req.on_complete = std::move(on_complete);
  stream.record_event(req.ready_event);
  stream.wait_event(req.done_event);
  P2pCommand cmd;
  cmd.comm = comm;
  cmd.gpu = gpu_;
  cmd.request = std::move(req);
  queue_->push(std::move(cmd));
}

}  // namespace mccs::svc
