#include "mccs/proxy_engine.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "mccs/fabric.h"
#include "netsim/routing.h"

namespace mccs::svc {
namespace {

std::uint64_t connection_ecmp_key(CommId comm, int channel, int src_rank,
                                  int dst_rank, std::uint64_t epoch,
                                  std::uint64_t seed) {
  std::uint64_t k = seed;
  k = net::Routing::ecmp_hash(k ^ comm.get());
  k = net::Routing::ecmp_hash(k ^ static_cast<std::uint64_t>(channel));
  k = net::Routing::ecmp_hash(k ^ static_cast<std::uint64_t>(src_rank));
  k = net::Routing::ecmp_hash(k ^ static_cast<std::uint64_t>(dst_rank));
  k = net::Routing::ecmp_hash(k ^ epoch);
  return k;
}

}  // namespace

ProxyEngine::ProxyEngine(ServiceContext& ctx, GpuId gpu,
                         TransportEngine& transport)
    : ctx_(&ctx), gpu_(gpu), transport_(&transport),
      plan_counters_([&ctx, gpu]() -> CollPlanCache::GpuCounters {
        MCCS_EXPECTS(ctx.telemetry != nullptr);
        telemetry::MetricsRegistry& reg = ctx.telemetry->metrics();
        const telemetry::Labels labels{{"gpu", std::to_string(gpu.get())}};
        return {reg.counter("plan_cache_hits", labels),
                reg.counter("plan_cache_misses", labels),
                reg.counter("plan_cache_invalidations", labels)};
      }()) {}

ProxyEngine::CommRank& ProxyEngine::comm_state(CommId comm) {
  auto it = comms_.find(comm.get());
  MCCS_EXPECTS(it != comms_.end());
  return it->second;
}

const ProxyEngine::CommRank& ProxyEngine::comm_state(CommId comm) const {
  auto it = comms_.find(comm.get());
  MCCS_EXPECTS(it != comms_.end());
  return it->second;
}

ProxyEngine::CommRank* ProxyEngine::find_comm(CommId comm, Late late) {
  auto it = comms_.find(comm.get());
  if (it != comms_.end()) return &it->second;
  const Fabric& fabric = *ctx_->fabric;
  MCCS_CHECK(late == Late::kIfGone ? fabric.comm_gone(comm)
                                   : fabric.comm_killed(comm),
             "message for an unknown communicator");
  return nullptr;
}

const CommSetup* ProxyEngine::installed_rank(CommId comm) const {
  auto it = comms_.find(comm.get());
  if (it != comms_.end()) return &it->second.setup;
  MCCS_CHECK(ctx_->fabric->comm_killed(comm),
             "communicator has no rank on this GPU");
  return nullptr;
}

void ProxyEngine::mark_destroy_requested(CommId comm) {
  CommRank& st = comm_state(comm);
  MCCS_CHECK(!st.destroy_requested, "communicator rank destroyed twice");
  st.destroy_requested = true;
}

void ProxyEngine::install_communicator(
    CommSetup setup, std::shared_ptr<const CommStrategy> strategy) {
  MCCS_EXPECTS(setup.info != nullptr);
  const CommInfo& info = *setup.info;
  MCCS_EXPECTS(info.nranks >= 1);
  MCCS_EXPECTS(info.gpus.size() == static_cast<std::size_t>(info.nranks));
  MCCS_EXPECTS(setup.rank >= 0 && setup.rank < info.nranks);
  MCCS_EXPECTS(info.gpus[static_cast<std::size_t>(setup.rank)] == gpu_);
  MCCS_EXPECTS(strategy != nullptr);

  // Built in place: the plan cache's GPU counters are references.
  auto [it, inserted] = comms_.try_emplace(info.id.get(), plan_counters_);
  MCCS_CHECK(inserted, "communicator already installed");
  CommRank& st = it->second;
  st.setup = std::move(setup);
  st.strategy = std::move(strategy);
  st.comm_stream = &ctx_->gpus->gpu(gpu_).create_stream();
}

void ProxyEngine::destroy_communicator(CommId comm) {
  auto it = comms_.find(comm.get());
  if (it == comms_.end()) {
    // The tenant's destroy and the provider's can both reach this rank, and
    // a kill can come first; whichever lands later finds it gone.
    MCCS_EXPECTS(ctx_->fabric->comm_gone(comm));
    return;
  }
  const CommRank& st = it->second;
  MCCS_CHECK(st.front() == st.next_seq,
             "destroying a communicator with outstanding collectives");
  for (const auto& [peer, p2p] : st.p2p) {
    MCCS_CHECK(p2p.sends.empty() && p2p.recvs.empty(),
               "destroying a communicator with outstanding P2P operations");
  }
  release_comm(it);
}

std::size_t ProxyEngine::abort_communicator(CommId comm) {
  auto it = comms_.find(comm.get());
  if (it == comms_.end()) return 0;
  CommRank& st = it->second;
  const std::size_t dropped = st.next_seq - st.front();
  // The running collective's scratch would leak with the tenant gone.
  // Completing each launched collective's external op lets the communicator
  // stream drain, so release_comm can free it; the completion callbacks die
  // with the CommRank and never fire. Held collectives never reached the
  // stream.
  if (st.running.scratch.valid()) {
    ctx_->gpus->gpu(gpu_).release(st.running.scratch.mem);
  }
  for (auto seq = st.front();
       static_cast<std::int64_t>(seq) <= st.last_launched_seq; ++seq) {
    st.comm_stream->complete_external(window_entry(st, seq).token);
  }
  release_comm(it);
  return dropped;
}

void ProxyEngine::release_comm(
    std::unordered_map<std::uint32_t, CommRank>::iterator it) {
  // A stream still draining its last ops is freed once they finish.
  ctx_->gpus->gpu(gpu_).destroy_stream(it->second.comm_stream->id());
  comms_.erase(it);
}

const CommStrategy& ProxyEngine::strategy(CommId comm) const {
  return *comm_state(comm).strategy;
}

std::int64_t ProxyEngine::last_completed(CommId comm) const {
  return comm_state(comm).last_completed_seq;
}

std::int64_t ProxyEngine::last_launched(CommId comm) const {
  return comm_state(comm).last_launched_seq;
}

bool ProxyEngine::reconfig_in_progress(CommId comm) const {
  const CommRank& st = comm_state(comm);
  for (const auto& [round, rs] : st.rounds) {
    if (rs.request_pending || rs.activated || rs.values_received > 0) return true;
  }
  return false;
}

std::size_t ProxyEngine::active_count(CommId comm) const {
  const CommRank& st = comm_state(comm);
  return static_cast<std::size_t>(st.last_launched_seq - st.last_completed_seq);
}

std::size_t ProxyEngine::held_count(CommId comm) const {
  const CommRank& st = comm_state(comm);
  return static_cast<std::size_t>(static_cast<std::int64_t>(st.next_seq) - 1 -
                                  st.last_launched_seq);
}

CollPlanCache::Stats ProxyEngine::plan_cache_stats(CommId comm) const {
  return comm_state(comm).plan_cache.stats();
}

std::size_t ProxyEngine::plan_cache_size(CommId comm) const {
  return comm_state(comm).plan_cache.size();
}

std::shared_ptr<const CollPlan> ProxyEngine::cached_plan(
    CommId comm, coll::CollectiveKind kind, std::size_t count,
    coll::DataType dtype, int root) const {
  const CommRank& st = comm_state(comm);
  return st.plan_cache.peek(st.strategy, kind, count, dtype, root);
}

// --- issue / launch -----------------------------------------------------------

ProxyEngine::WindowEntry& ProxyEngine::window_entry(CommRank& st,
                                                    std::uint64_t seq) {
  const auto front = st.front();
  MCCS_ASSERT(seq >= front);
  const std::size_t cap = st.window.size();
  if (seq - front >= cap) {
    // Re-slot every live sequence number (front .. front + cap - 1) into a
    // ring that also reaches `seq`.
    std::vector<WindowEntry> grown(
        std::bit_ceil(std::max<std::size_t>(seq - front + 1, 2 * cap)));
    for (std::uint64_t s = front; s < front + cap; ++s) {
      grown[s & (grown.size() - 1)] = std::move(st.window[s & (cap - 1)]);
    }
    st.window = std::move(grown);
  }
  return st.window[seq & (st.window.size() - 1)];
}

void ProxyEngine::issue_collective(CommId comm, WorkRequest request) {
  // Tolerant lookup: the frontend hands requests over after an engine hop, so
  // a tenant kill can land while a request is in flight. Dropping it is the
  // correct semantics — the tenant is gone.
  CommRank* stp = find_comm(comm, Late::kIfKilled);
  if (stp == nullptr) return;
  CommRank& st = *stp;
  MCCS_EXPECTS(request.args.count > 0);
  const std::uint64_t seq = st.next_seq++;

  TraceRecord rec;
  rec.app = st.setup.info->app;
  rec.comm = comm;
  rec.rank = st.setup.rank;
  rec.seq = seq;
  rec.kind = request.args.kind;
  rec.bytes = request.args.output_bytes(st.setup.info->nranks);
  rec.issued = ctx_->loop->now();
  WindowEntry& e = window_entry(st, seq);
  // Issued densely, once each: the slot holds no request yet.
  MCCS_ASSERT(e.req.ready_event == nullptr);
  e.req = std::move(request);
  // The trace index is assigned here, carried through any barrier hold, and
  // used directly at launch — never searched for (the old backward scan was
  // O(trace length) per launch, quadratic over a long run).
  e.trace_index = trace_.size();
  trace_.push_back(rec);
  release_held(st);
}

void ProxyEngine::release_held(CommRank& st) {
  // Every gate change calls this, and between changes the set of sequence
  // numbers a gate allows only grows, so whatever is held is exactly what
  // the gate refuses, and launches leave in sequence order.
  const CommId comm = st.setup.info->id;
  const RoundState* gate = active_round(st);
  for (auto seq = static_cast<std::uint64_t>(st.last_launched_seq + 1);
       seq < st.next_seq; ++seq) {
    const auto s = static_cast<std::int64_t>(seq);
    if (gate != nullptr &&
        !(gate->have_max && !gate->updating && s <= gate->max_seq)) {
      return;
    }
    WindowEntry& e = window_entry(st, seq);
    MCCS_ASSERT(e.trace_index < trace_.size() &&
                trace_[e.trace_index].comm == comm &&
                trace_[e.trace_index].seq == seq);
    trace_[e.trace_index].launched = ctx_->loop->now();
    st.last_launched_seq = s;

    // Communicator-stream sequence: wait for the app's compute to finish, run
    // the communication "kernel" (externally completed by the step
    // machines), then record the done event the app stream is waiting on
    // (§4.1). The kernel may begin inside enqueue_external.
    gpu::Stream& stream = *st.comm_stream;
    stream.wait_event(e.req.ready_event);
    e.token = stream.enqueue_external(
        [this, comm, seq] { begin_execution(comm, seq); });
    stream.record_event(e.req.done_event);
  }
}

void ProxyEngine::begin_execution(CommId comm, std::uint64_t seq) {
  // The comm stream fires this through an external-op callback; the
  // communicator may have been torn down by a tenant kill.
  CommRank* stp = find_comm(comm, Late::kIfKilled);
  if (stp == nullptr) return;
  CommRank& st = *stp;
  {
    const RoundState* gate = active_round(st);
    MCCS_CHECK(gate == nullptr || !gate->updating,
               "collective executing during connection update");
  }
  // The comm stream began this op only after the previous one completed.
  MCCS_ASSERT(seq == st.front() && !st.running.begun);
  WindowEntry& e = window_entry(st, seq);
  RunningColl& run = st.running;
  run.begun = true;
  trace_[e.trace_index].started = ctx_->loop->now();

  const CollectiveArgs& args = e.req.args;
  const int n = st.setup.info->nranks;
  gpu::Gpu& dev = ctx_->gpus->gpu(gpu_);

  // Stage the buffers exactly as the frontend validated them.
  const RankBuffers buffers = rank_buffers(args, n, st.setup.rank);
  if (buffers.scratch > 0) run.scratch = dev.allocate(buffers.scratch);
  const gpu::DevicePtr by_role[] = {args.send, args.recv, run.scratch};
  const auto buffer = [&by_role](RankBuffer b) {
    return by_role[static_cast<std::size_t>(b)];
  };
  run.workbuf = buffer(buffers.work);
  run.read_buf = buffer(buffers.read);
  if (ctx_->config.move_data && buffers.copy.len > 0) {
    const Bytes len = buffers.copy.len;
    auto src = dev.bytes(args.send.at_offset(buffers.copy.from), len);
    auto dst = dev.bytes(buffer(buffers.copy.into).at_offset(buffers.copy.to), len);
    std::memcpy(dst.data(), src.data(), src.size());
  }

  if (n == 1) {
    // Single-participant communicator: the local copy is the collective.
    ctx_->loop->schedule_after(ctx_->config.comm_kernel_launch, [this, comm] {
      CommRank* s = find_comm(comm, Late::kIfKilled);
      if (s == nullptr) return;
      complete_collective(*s);
    });
    return;
  }

  // Attach the (cached) collective plan and reset the per-channel cursor
  // state — on a warm cache this allocates nothing.
  run.plan = st.plan_cache.acquire(st.setup, st.strategy, args.kind,
                                   args.count, args.dtype, args.root);
  const int num_channels = static_cast<int>(run.plan->channels.size());
  run.channels.resize(static_cast<std::size_t>(num_channels));
  for (int c = 0; c < num_channels; ++c) {
    ChannelExec& ch = run.channels[static_cast<std::size_t>(c)];
    ch.channel = c;
    ch.cur = 0;
    ch.send_done = false;
    ch.started = false;
    ch.finished = false;
    ch.arrived.assign(
        run.plan->channels[static_cast<std::size_t>(c)].recv_slots.size(), 0);
  }
  run.channels_remaining = num_channels;

  // Replay, in arrival order, the chunks faster peers sent before we began.
  // No channel has started, so this only lands bytes and marks arrivals.
  for (const EarlyChunk& c : e.early) {
    const std::span<const std::byte> bytes =
        e.early_bytes.empty()
            ? std::span<const std::byte>{}
            : std::span<const std::byte>(e.early_bytes).subspan(c.at, c.len);
    apply_delivery(st, c.channel, c.transfer_tag, c.len, bytes);
  }
  e.early.clear();
  e.early_bytes.clear();

  // Kick the step machines after the kernel-launch overhead. All channels'
  // first chunk flows post at this one instant, so they share a solve batch
  // (and, being latent, one activation cohort): one re-solve for the whole
  // launch, not one per chunk.
  ctx_->loop->schedule_after(ctx_->config.comm_kernel_launch, [this, comm] {
    CommRank* s = find_comm(comm, Late::kIfKilled);
    if (s == nullptr) return;
    net::Network::SolveBatch batch(*ctx_->network);
    for (ChannelExec& ch : s->running.channels) {
      ch.started = true;
      start_step(*s, ch);
    }
  });
}

void ProxyEngine::post_transfer(ChunkTransfer t) {
  if (ctx_->cluster->same_host(gpu_, t.dst_gpu)) {
    const gpu::DeviceConfig& dc = ctx_->gpus->gpu(gpu_).config();
    const Time dt = ctx_->config.intra_host_hop_latency +
                    static_cast<double>(t.bytes) / dc.intra_host_bandwidth;
    ctx_->loop->schedule_after(dt, std::move(t.on_done));
    return;
  }
  transport_->post_send(std::move(t));
}

void ProxyEngine::start_step(CommRank& st, ChannelExec& ch) {
  if (ch.finished) return;
  const CollPlan::Channel& pc =
      st.running.plan->channels[static_cast<std::size_t>(ch.channel)];
  if (ch.cur >= pc.steps.size()) {
    finish_channel(st, ch);
    return;
  }
  const CollPlan::Step& step = pc.steps[ch.cur];

  if (step.has_send()) {
    ProxyEngine* recv_proxy = &ctx_->fabric->proxy_for(step.send_gpu);
    const CommInfo& info = *st.setup.info;
    const CommId comm = info.id;
    const auto seq = st.front();
    const int channel = ch.channel;
    ChunkTransfer t;
    t.app = info.app;
    t.src_gpu = gpu_;
    t.dst_gpu = step.send_gpu;
    t.bytes = step.send_range.len;
    // Route and ECMP key are resolved live (not from the plan): the
    // unsafe-reconfig ablation swaps strategy/epoch mid-flight and must
    // keep observing the swap, exactly as before the plan cache.
    const auto& routes = st.strategy->routes;
    auto rit = routes.find(
        CommStrategy::route_key(ch.channel, st.setup.rank, step.send_to));
    if (rit != routes.end()) t.route = rit->second;
    t.ecmp_key = connection_ecmp_key(comm, ch.channel, st.setup.rank,
                                     step.send_to, st.epoch, ctx_->seed);
    t.on_done = [this, recv_proxy, comm, seq, channel, tag = step.send_tag,
                 range = step.send_range, read_buf = st.running.read_buf] {
      recv_proxy->deliver_chunk(comm, seq, channel, tag, range, read_buf,
                                gpu_);
      // In-flight completions of a killed tenant's sends land here after the
      // CommRank is gone (intra-host hops bypass the transport's abort sweep).
      CommRank* s = find_comm(comm, Late::kIfKilled);
      if (s == nullptr) return;
      // A channel waits for its send, so the collective is still running.
      MCCS_ASSERT(s->running.begun && seq == s->front());
      ChannelExec& c = s->running.channels[static_cast<std::size_t>(channel)];
      c.send_done = true;
      check_advance(*s, c);
    };
    post_transfer(std::move(t));
  } else {
    ch.send_done = true;
  }
  check_advance(st, ch);
}

void ProxyEngine::check_advance(CommRank& st, ChannelExec& ch) {
  const CollPlan::Channel& pc =
      st.running.plan->channels[static_cast<std::size_t>(ch.channel)];
  if (!ch.started || ch.finished || ch.cur >= pc.steps.size()) return;
  const CollPlan::Step& step = pc.steps[ch.cur];
  const bool send_ok = !step.has_send() || ch.send_done;
  const bool recv_ok =
      !step.has_recv() || ch.arrived[static_cast<std::size_t>(step.recv_slot)];
  if (send_ok && recv_ok) {
    ++ch.cur;
    ch.send_done = false;
    start_step(st, ch);
  }
}

void ProxyEngine::deliver_chunk(CommId comm, std::uint64_t seq, int channel,
                                int transfer_tag, PlanByteRange src_range,
                                gpu::DevicePtr src_buf, GpuId src_gpu) {
  // A chunk for a rank that is gone — every rank of a killed tenant, or this
  // rank after its tenant destroyed it while a peer still sent — is dropped
  // before touching any (possibly released) source buffer.
  CommRank* stp = find_comm(comm, Late::kIfGone);
  if (stp == nullptr) return;
  CommRank& st = *stp;
  // A collective completes only after every chunk it expects, so a chunk for
  // a completed one was never expected: only the unsafe reconfiguration
  // ablation, mixing two schedules, sends one. Nothing would read it.
  if (seq < st.front()) return;
  std::span<const std::byte> bytes;
  if (ctx_->config.move_data && src_range.len > 0) {
    bytes = ctx_->gpus->gpu(src_gpu).bytes(src_buf.at_offset(src_range.offset),
                                           src_range.len);
  }
  if (seq == st.front() && st.running.begun) {
    apply_delivery(st, channel, transfer_tag, src_range.len, bytes);
    return;
  }
  // Not begun here yet. Keep the bytes, not the sender's buffer: on rooted
  // and star kinds the sender can complete first and rewrite or free it.
  WindowEntry& e = window_entry(st, seq);
  e.early.push_back(
      EarlyChunk{channel, transfer_tag, src_range.len, e.early_bytes.size()});
  e.early_bytes.insert(e.early_bytes.end(), bytes.begin(), bytes.end());
}

void ProxyEngine::apply_delivery(CommRank& st, int channel, int transfer_tag,
                                 Bytes len, std::span<const std::byte> bytes) {
  RunningColl& run = st.running;
  const CollectiveArgs& args = window_entry(st, st.front()).req.args;
  ChannelExec& ch = run.channels[static_cast<std::size_t>(channel)];
  const CollPlan::Channel& pc =
      run.plan->channels[static_cast<std::size_t>(channel)];
  const std::int32_t slot_idx =
      (transfer_tag >= 0 &&
       static_cast<std::size_t>(transfer_tag) < pc.tag_to_slot.size())
          ? pc.tag_to_slot[static_cast<std::size_t>(transfer_tag)]
          : -1;
  MCCS_CHECK(slot_idx >= 0,
             "transfer tag not expected by the receiver's schedule");
  const CollPlan::RecvSlot& slot =
      pc.recv_slots[static_cast<std::size_t>(slot_idx)];
  MCCS_CHECK(len == slot.range.len, "transfer length mismatch");
  if (!bytes.empty()) {
    auto dst = ctx_->gpus->gpu(gpu_).bytes(
        run.workbuf.at_offset(slot.range.offset), slot.range.len);
    if (slot.reduce) {
      coll::reduce_bytes(dst, bytes, args.dtype, args.op);
    } else {
      std::memcpy(dst.data(), bytes.data(), bytes.size());
    }
  }
  ch.arrived[static_cast<std::size_t>(slot_idx)] = 1;
  check_advance(st, ch);
}

void ProxyEngine::finish_channel(CommRank& st, ChannelExec& ch) {
  MCCS_CHECK(!ch.finished, "channel finished twice");
  ch.finished = true;
  // ReduceScatter: this rank's fully reduced stripe moves from the work
  // buffer to the user's recv buffer; the plan holds both ranges, and they
  // are empty for every other kind.
  RunningColl& run = st.running;
  const CollPlan::Channel& pc =
      run.plan->channels[static_cast<std::size_t>(ch.channel)];
  if (ctx_->config.move_data && pc.rs_src.len > 0) {
    gpu::Gpu& dev = ctx_->gpus->gpu(gpu_);
    const gpu::DevicePtr recv = window_entry(st, st.front()).req.args.recv;
    auto src = dev.bytes(run.workbuf.at_offset(pc.rs_src.offset), pc.rs_src.len);
    auto dst = dev.bytes(recv.at_offset(pc.rs_dst.offset), pc.rs_dst.len);
    std::memcpy(dst.data(), src.data(), src.size());
  }

  if (--run.channels_remaining == 0) complete_collective(st);
}

void ProxyEngine::complete_collective(CommRank& st) {
  WindowEntry& e = window_entry(st, st.front());
  RunningColl& run = st.running;
  MCCS_ASSERT(run.begun);

  trace_[e.trace_index].completed = ctx_->loop->now();
  ++st.last_completed_seq;  // the front completes, so the window pops it
  run.begun = false;

  if (run.scratch.valid()) ctx_->gpus->gpu(gpu_).release(run.scratch.mem);
  run.scratch = gpu::DevicePtr{};

  st.comm_stream->complete_external(e.token);

  if (e.req.on_complete) {
    const Time completed = ctx_->loop->now();
    ctx_->loop->schedule_after(ctx_->config.service_to_shim_latency,
                               [cb = std::move(e.req.on_complete), completed] {
                                 cb(completed);
                               });
  }

  // The slot passes to the sequence number one window size on; its
  // early-chunk vectors keep their capacity for it.
  e.req = WorkRequest{};

  maybe_begin_update(st);
}

// --- point-to-point (§5) --------------------------------------------------------

void ProxyEngine::issue_p2p(CommId comm, P2pRequest request) {
  CommRank* stp = find_comm(comm, Late::kIfKilled);
  if (stp == nullptr) return;  // tenant killed while the request was in flight
  CommRank& st = *stp;
  MCCS_EXPECTS(request.peer >= 0 && request.peer < st.setup.info->nranks);
  MCCS_EXPECTS(request.peer != st.setup.rank);
  MCCS_EXPECTS(request.count > 0);

  P2pPeerState& peer = st.p2p[request.peer];
  const bool is_send = request.is_send;
  const std::uint64_t index =
      is_send ? peer.next_send_index++ : peer.next_recv_index++;

  P2pOp op;
  op.req = std::move(request);
  auto& slot = is_send ? peer.sends : peer.recvs;
  auto [it, inserted] = slot.emplace(index, std::move(op));
  MCCS_CHECK(inserted, "duplicate P2P op index");

  // Unlike collectives, P2P operations do NOT serialize on a service stream:
  // each op launches as soon as its own app-stream dependency (the ready
  // event) signals, and completion signals its done event directly. This is
  // the grouped-send/recv semantics: an application may issue a send and a
  // recv back to back without deadlocking on either side's ordering.
  const int peer_rank = it->second.req.peer;
  it->second.req.ready_event->on_signal(
      [this, comm, peer_rank, index, is_send] {
        CommRank* s = find_comm(comm, Late::kIfKilled);
        if (s == nullptr) return;  // tenant killed before its compute finished
        p2p_launch(*s, peer_rank, index, is_send);
      });
}

void ProxyEngine::p2p_launch(CommRank& st, int peer, std::uint64_t op_index,
                             bool is_send) {
  P2pPeerState& ps = st.p2p.at(peer);
  if (is_send) {
    P2pOp& op = ps.sends.at(op_index);
    op.launched = true;
    // Announce to the receiving proxy (rendezvous step 1).
    const CommInfo& info = *st.setup.info;
    ProxyEngine* remote =
        &ctx_->fabric->proxy_for(info.gpus[static_cast<std::size_t>(peer)]);
    const CommId comm = info.id;
    const int my_rank = st.setup.rank;
    const Bytes bytes = op.req.count * coll::dtype_size(op.req.dtype);
    ctx_->loop->schedule_after(
        ctx_->config.control_hop_latency,
        [remote, comm, my_rank, op_index, bytes, buf = op.req.buffer,
         gpu = gpu_] {
          remote->on_p2p_send_request(comm, my_rank, op_index, bytes, buf, gpu);
        });
  } else {
    ps.recvs.at(op_index).launched = true;
    p2p_try_start_transfer(st, peer, op_index);
  }
}

void ProxyEngine::on_p2p_send_request(CommId comm, int src_rank,
                                      std::uint64_t op_index, Bytes bytes,
                                      gpu::DevicePtr src_buffer, GpuId src_gpu) {
  // The rendezvous raced with a tenant kill, or with this rank's destroy.
  CommRank* stp = find_comm(comm, Late::kIfGone);
  if (stp == nullptr) return;
  CommRank& st = *stp;
  P2pPeerState& ps = st.p2p[src_rank];
  ps.announced[op_index] = P2pPeerState::PendingSend{bytes, src_buffer, src_gpu};
  p2p_try_start_transfer(st, src_rank, op_index);
}

void ProxyEngine::p2p_try_start_transfer(CommRank& st, int src_rank,
                                         std::uint64_t op_index) {
  // Runs at the RECEIVER: needs both the sender's announcement and a
  // launched local recv of the same index.
  P2pPeerState& ps = st.p2p[src_rank];
  auto ann = ps.announced.find(op_index);
  auto recv = ps.recvs.find(op_index);
  if (ann == ps.announced.end() || recv == ps.recvs.end() ||
      !recv->second.launched) {
    return;
  }
  const Bytes recv_bytes =
      recv->second.req.count * coll::dtype_size(recv->second.req.dtype);
  MCCS_CHECK(recv_bytes == ann->second.bytes,
             "P2P send/recv sizes disagree");

  // Tell the sender where to put the data (rendezvous step 2).
  const CommInfo& info = *st.setup.info;
  ProxyEngine* remote =
      &ctx_->fabric->proxy_for(info.gpus[static_cast<std::size_t>(src_rank)]);
  const CommId comm = info.id;
  const int my_rank = st.setup.rank;
  ctx_->loop->schedule_after(
      ctx_->config.control_hop_latency,
      [remote, comm, my_rank, op_index, dst = recv->second.req.buffer] {
        remote->on_p2p_recv_posted(comm, my_rank, op_index, dst);
      });
  ps.announced.erase(ann);
}

void ProxyEngine::on_p2p_recv_posted(CommId comm, int dst_rank,
                                     std::uint64_t op_index,
                                     gpu::DevicePtr dst_buffer) {
  CommRank* stp = find_comm(comm, Late::kIfKilled);
  if (stp == nullptr) return;  // rendezvous raced with a tenant kill
  CommRank& st = *stp;
  auto pit = st.p2p.find(dst_rank);
  if (pit == st.p2p.end()) return;
  P2pPeerState& ps = pit->second;
  auto oit = ps.sends.find(op_index);
  if (oit == ps.sends.end()) return;
  P2pOp& op = oit->second;
  const Bytes bytes = op.req.count * coll::dtype_size(op.req.dtype);
  const CommInfo& info = *st.setup.info;
  const GpuId dst_gpu = info.gpus[static_cast<std::size_t>(dst_rank)];
  ProxyEngine* remote = &ctx_->fabric->proxy_for(dst_gpu);
  const CommId comm_id = info.id;
  const int my_rank = st.setup.rank;

  ChunkTransfer t;
  t.app = info.app;
  t.src_gpu = gpu_;
  t.dst_gpu = dst_gpu;
  t.bytes = bytes;
  t.ecmp_key = connection_ecmp_key(comm_id, 0x7FFF, my_rank, dst_rank,
                                   st.epoch, ctx_->seed);
  t.on_done = [this, remote, comm_id, my_rank, dst_rank, op_index, bytes,
               src = op.req.buffer, dst = dst_buffer, src_gpu = gpu_,
               dst_gpu] {
    // A kill aborts every rank of the comm, so one check suffices; skipping
    // the copy keeps us off buffers the teardown may have released.
    if (find_comm(comm_id, Late::kIfKilled) == nullptr) return;
    if (ctx_->config.move_data) {
      auto s = ctx_->gpus->gpu(src_gpu).bytes(src, bytes);
      auto d = ctx_->gpus->gpu(dst_gpu).bytes(dst, bytes);
      std::memcpy(d.data(), s.data(), s.size());
    }
    p2p_complete(comm_id, dst_rank, op_index, /*is_send=*/true);
    remote->p2p_complete(comm_id, my_rank, op_index, /*is_send=*/false);
  };
  post_transfer(std::move(t));
}

void ProxyEngine::p2p_complete(CommId comm, int peer, std::uint64_t op_index,
                               bool is_send) {
  CommRank* stp = find_comm(comm, Late::kIfKilled);
  if (stp == nullptr) return;  // transfer completed into a killed tenant
  auto pit = stp->p2p.find(peer);
  if (pit == stp->p2p.end()) return;
  P2pPeerState& ps = pit->second;
  auto& slot = is_send ? ps.sends : ps.recvs;
  auto it = slot.find(op_index);
  if (it == slot.end()) return;
  it->second.req.done_event->signal(ctx_->loop->now());
  if (it->second.req.on_complete) {
    ctx_->loop->schedule_after(
        ctx_->config.service_to_shim_latency,
        [cb = std::move(it->second.req.on_complete), now = ctx_->loop->now()] {
          cb(now);
        });
  }
  slot.erase(it);
}

// --- reconfiguration protocol (Fig. 4) -----------------------------------------

ProxyEngine::RoundState& ProxyEngine::get_round(CommRank& st, std::uint64_t round) {
  auto it = st.rounds.find(round);
  if (it == st.rounds.end()) {
    RoundState rs;
    rs.values.assign(static_cast<std::size_t>(st.setup.info->nranks),
                     std::numeric_limits<std::int64_t>::min());
    it = st.rounds.emplace(round, std::move(rs)).first;
  }
  return it->second;
}

ProxyEngine::RoundState* ProxyEngine::active_round(CommRank& st) {
  auto it = st.rounds.find(st.last_applied_round + 1);
  if (it == st.rounds.end() || !it->second.activated) return nullptr;
  return &it->second;
}

void ProxyEngine::request_reconfigure(
    CommId comm, std::uint64_t round,
    std::shared_ptr<const CommStrategy> new_strategy) {
  // Tolerate a comm torn down before the controller's command landed (kill
  // or destroy racing a reconfiguration); stale rounds for a LIVE comm are
  // still a contract violation below.
  CommRank* stp = find_comm(comm, Late::kIfGone);
  if (stp == nullptr) return;
  CommRank& st = *stp;
  MCCS_EXPECTS(new_strategy != nullptr);
  if (ctx_->config.unsafe_immediate_reconfig) {
    // Ablation mode: swap the strategy with no synchronization. Ranks that
    // have not yet launched the same sequence number will now use a
    // different configuration — the Fig.-4 failure case.
    st.strategy = std::move(new_strategy);
    st.last_applied_round = std::max(st.last_applied_round, round);
    ++st.epoch;
    return;
  }
  MCCS_CHECK(round > st.last_applied_round,
             "stale reconfiguration round delivered");
  RoundState& rs = get_round(st, round);
  MCCS_CHECK(!rs.request_pending && !rs.activated,
             "duplicate reconfiguration command for a round");
  rs.request_pending = true;
  rs.strategy = std::move(new_strategy);
  try_activate(st);
}

void ProxyEngine::try_activate(CommRank& st) {
  // Rounds are processed strictly in order: only the round right after the
  // last applied one may activate. A request for a later round waits (its
  // peers' barrier values are buffered per round meanwhile).
  const std::uint64_t round = st.last_applied_round + 1;
  auto it = st.rounds.find(round);
  if (it == st.rounds.end()) return;
  RoundState& rs = it->second;
  if (!rs.request_pending || rs.activated) return;
  rs.activated = true;

  const int rank = st.setup.rank;
  MCCS_CHECK(rs.values[static_cast<std::size_t>(rank)] ==
                 std::numeric_limits<std::int64_t>::min(),
             "own barrier value contributed twice");
  rs.values[static_cast<std::size_t>(rank)] = st.last_launched_seq;
  ++rs.values_received;
  send_control_to_successor(st, round, rank, st.last_launched_seq);
  check_barrier(st, round);
}

void ProxyEngine::on_control_value(CommId comm, std::uint64_t round,
                                   int origin_rank, std::int64_t value) {
  CommRank* stp = find_comm(comm, Late::kIfGone);
  if (stp == nullptr) return;  // barrier value outlived its communicator
  CommRank& st = *stp;
  if (round <= st.last_applied_round) return;  // late echo of a done round
  RoundState& rs = get_round(st, round);
  auto& slot = rs.values[static_cast<std::size_t>(origin_rank)];
  if (slot == std::numeric_limits<std::int64_t>::min()) {
    slot = value;
    ++rs.values_received;
    const int succ = (st.setup.rank + 1) % st.setup.info->nranks;
    if (succ != origin_rank) {
      send_control_to_successor(st, round, origin_rank, value);
    }
  }
  check_barrier(st, round);
}

void ProxyEngine::send_control_to_successor(CommRank& st, std::uint64_t round,
                                            int origin, std::int64_t value) {
  const CommInfo& info = *st.setup.info;
  const int succ = (st.setup.rank + 1) % info.nranks;
  ProxyEngine* peer =
      &ctx_->fabric->proxy_for(info.gpus[static_cast<std::size_t>(succ)]);
  const CommId comm = info.id;
  ctx_->loop->schedule_after(
      ctx_->config.control_hop_latency, [peer, comm, round, origin, value] {
        peer->on_control_value(comm, round, origin, value);
      });
}

void ProxyEngine::check_barrier(CommRank& st, std::uint64_t round) {
  if (round != st.last_applied_round + 1) return;  // not this round's turn
  auto it = st.rounds.find(round);
  if (it == st.rounds.end()) return;
  RoundState& rs = it->second;
  if (!rs.activated || rs.have_max) return;
  if (rs.values_received < st.setup.info->nranks) return;
  rs.have_max = true;
  rs.max_seq = *std::max_element(rs.values.begin(), rs.values.end());
  // Launch every held collective that must still run under the old
  // configuration (sequence number <= barrier maximum).
  release_held(st);
  maybe_begin_update(st);
}

void ProxyEngine::maybe_begin_update(CommRank& st) {
  const std::uint64_t round = st.last_applied_round + 1;
  auto it = st.rounds.find(round);
  if (it == st.rounds.end()) return;
  RoundState& rs = it->second;
  if (rs.activated && rs.have_max && !rs.updating &&
      st.last_completed_seq == rs.max_seq) {
    begin_update(st, round);
  }
}

void ProxyEngine::begin_update(CommRank& st, std::uint64_t round) {
  MCCS_CHECK(st.last_launched_seq == st.last_completed_seq,
             "connection update starting with active collectives");
  RoundState& rs = st.rounds.at(round);
  rs.updating = true;
  // Tear down peer-to-peer connections: bump the epoch so re-established
  // connections re-roll their ECMP placement, and pay the setup time.
  ++st.epoch;
  const CommId comm = st.setup.info->id;
  ctx_->loop->schedule_after(ctx_->config.connection_setup_time,
                             [this, comm, round] { finish_update(comm, round); });
}

void ProxyEngine::finish_update(CommId comm, std::uint64_t round) {
  CommRank* stp = find_comm(comm, Late::kIfGone);
  if (stp == nullptr) return;  // torn down during the connection update
  CommRank& st = *stp;
  auto it = st.rounds.find(round);
  MCCS_CHECK(it != st.rounds.end() && it->second.updating,
             "finish_update without begin_update");
  st.strategy = std::move(it->second.strategy);
  st.rounds.erase(it);
  st.last_applied_round = round;

  // Resume: if the next round is already pending, activating it first keeps
  // everything issued during this update held until its own barrier — its
  // contributed value correctly reflects only launches that really happened.
  try_activate(st);

  // Release held collectives that the (possibly new) gate allows.
  release_held(st);
  maybe_begin_update(st);
}

}  // namespace mccs::svc
