#pragma once
// Proxy engine (§4.2): one per GPU. Bridges high-level communicators to
// low-level resources:
//
//  * executes collectives as per-channel ring step machines, moving real
//    bytes between the ranks' work buffers (intra-host via shared-memory
//    channels it manages directly; inter-host via the transport engines);
//  * serialises collectives of a communicator on a service-owned
//    communicator stream, synchronised with the application's streams
//    through shared GPU events (§4.1);
//  * assigns the monotonically increasing per-communicator sequence numbers
//    and implements the reconfiguration barrier of Fig. 4: on a provider
//    reconfiguration request it holds new launches, runs an AllGather of
//    last-launched sequence numbers over the per-communicator control ring,
//    drains every collective up to the maximum, then tears down and
//    re-establishes peer connections under the new strategy.
//
// The Fabric builds every proxy, hands each the transport of its GPU's NIC,
// and is the one registry a proxy asks about peers and liveness: the proxy
// of a peer GPU, and whether a communicator with no rank here is gone or was
// killed (DESIGN.md §8).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "collectives/types.h"
#include "common/ids.h"
#include "gpusim/runtime.h"
#include "mccs/api.h"
#include "mccs/coll_plan.h"
#include "mccs/context.h"
#include "mccs/strategy.h"
#include "mccs/trace.h"
#include "mccs/transport_engine.h"

namespace mccs::svc {

/// One communicator's immutable record: built once when its rendezvous
/// completes, held by the Fabric's registry and shared by every rank.
struct CommInfo {
  CommId id;
  AppId app;
  int nranks = 0;
  std::vector<GpuId> gpus;  ///< by rank
};

/// One rank of a communicator: the record every rank shares, and the rank.
struct CommSetup {
  std::shared_ptr<const CommInfo> info;
  int rank = 0;
};

/// A validated collective work request handed over by the frontend engine.
struct WorkRequest {
  CollectiveArgs args;
  std::shared_ptr<gpu::GpuEvent> ready_event;  ///< recorded on the app stream
  std::shared_ptr<gpu::GpuEvent> done_event;   ///< recorded on the comm stream
  CompletionCallback on_complete;              ///< optional shim notification
};

/// A point-to-point operation (§5: "P2P communication"). P2P transfers ride
/// their own per-peer operation counters, independent of the collective
/// sequence space — they do not use the ring/tree strategy, so they neither
/// gate nor are gated by reconfigurations.
struct P2pRequest {
  int peer = -1;  ///< remote rank
  bool is_send = false;
  gpu::DevicePtr buffer;
  std::size_t count = 0;
  coll::DataType dtype = coll::DataType::kFloat32;
  std::shared_ptr<gpu::GpuEvent> ready_event;
  std::shared_ptr<gpu::GpuEvent> done_event;
  CompletionCallback on_complete;
};

class ProxyEngine {
 public:
  /// `transport` is the engine of the NIC this GPU's traffic leaves
  /// through (Cluster::nic_index_of_gpu).
  ProxyEngine(ServiceContext& ctx, GpuId gpu, TransportEngine& transport);

  ProxyEngine(const ProxyEngine&) = delete;
  ProxyEngine& operator=(const ProxyEngine&) = delete;

  [[nodiscard]] GpuId gpu() const { return gpu_; }

  // --- communicator lifecycle -------------------------------------------------
  /// `setup.info` and `strategy` are the immutable objects every rank of the
  /// communicator shares; the caller (Fabric) has validated the strategy
  /// against the record.
  void install_communicator(CommSetup setup,
                            std::shared_ptr<const CommStrategy> strategy);
  /// Orderly teardown of an idle communicator rank. Messages from its peer
  /// ranks still in flight for it — chunk deliveries and P2P send
  /// announcements of a peer's operation, barrier rounds it took part in —
  /// are dropped on arrival; the peer's operation then never completes, a
  /// stall confined to the tenant's own communicator. A rank that is not
  /// installed here while its communicator is gone is skipped: a tenant's
  /// comm_destroy and the provider's destroy_communicator may both tear it
  /// down, and a kill may come first.
  void destroy_communicator(CommId comm);

  /// Forced teardown (tenant kill): drop the rank's state for `comm`
  /// unconditionally — launched and held collectives, early chunks, P2P
  /// rendezvous, barrier rounds. Completion callbacks of the dropped work
  /// never fire; the communicator stream is freed once the launched
  /// collectives' stream ops drain; late control/data messages
  /// addressed to the dead communicator are dropped on arrival. Returns the
  /// number of launched-or-held collectives dropped. No-op (returns 0) if
  /// the communicator is not installed here.
  std::size_t abort_communicator(CommId comm);
  [[nodiscard]] bool has_communicator(CommId comm) const {
    return comms_.count(comm.get()) > 0;
  }
  /// This GPU's installed rank of `comm`, the one issue_collective runs:
  /// null once a tenant kill tore it down. A communicator with no rank here
  /// (never had one, or destroyed it) is a contract violation.
  [[nodiscard]] const CommSetup* installed_rank(CommId comm) const;
  /// Shim::comm_destroy's mark on this GPU's installed rank of `comm`,
  /// taken when the destroy is requested: a second request from the rank
  /// throws ContractViolation. The mark lives in the rank and goes with it.
  void mark_destroy_requested(CommId comm);
  /// The installed strategy. The object lives until a later reconfiguration
  /// replaces it on every rank, or the communicator goes away.
  [[nodiscard]] const CommStrategy& strategy(CommId comm) const;

  // --- data path ---------------------------------------------------------------
  /// Issue a collective (from the frontend engine). Assigns the sequence
  /// number; launches immediately unless a reconfiguration holds it.
  void issue_collective(CommId comm, WorkRequest request);

  /// Issue a point-to-point send or receive (from the frontend engine).
  void issue_p2p(CommId comm, P2pRequest request);

  /// Rendezvous: the k-th send from `src_rank` announces itself to the
  /// receiving proxy; the transfer starts once the matching k-th recv is
  /// posted here.
  void on_p2p_send_request(CommId comm, int src_rank, std::uint64_t op_index,
                           Bytes bytes, gpu::DevicePtr src_buffer, GpuId src_gpu);
  /// The sender learns that the receiver posted the matching buffer.
  void on_p2p_recv_posted(CommId comm, int dst_rank, std::uint64_t op_index,
                          gpu::DevicePtr dst_buffer);

  /// Data arrival from a peer rank (invoked by the sender's transport /
  /// proxy when a chunk lands in this rank's memory space): `src_range` of
  /// the sender's `src_buf`. The receiver resolves what to do with it (its
  /// byte range, reduce-vs-copy) from its own schedule by tag, and checks
  /// that the lengths agree. A chunk for the running collective is applied
  /// at once; one for a collective this rank has not begun is kept in its
  /// window entry with a copy of its bytes, since the sender may complete
  /// and reuse or free its buffer first (a Broadcast root, a Reduce
  /// non-root's scratch). One for a completed collective is dropped.
  void deliver_chunk(CommId comm, std::uint64_t seq, int channel,
                     int transfer_tag, PlanByteRange src_range,
                     gpu::DevicePtr src_buf, GpuId src_gpu);

  // --- control path (provider / peers) ----------------------------------------
  /// Provider reconfiguration command (arrives via the control plane, at
  /// arbitrary per-rank times — the race Fig. 4 illustrates). Rounds are
  /// assigned monotonically per communicator by the controller (Fabric) and
  /// applied strictly in order at every rank. Every rank of one round
  /// receives the same strategy object, validated by the Fabric.
  void request_reconfigure(CommId comm, std::uint64_t round,
                           std::shared_ptr<const CommStrategy> new_strategy);

  /// Control-ring AllGather traffic for one reconfiguration round:
  /// `origin`'s last-launched sequence number, forwarded hop by hop.
  void on_control_value(CommId comm, std::uint64_t round, int origin_rank,
                        std::int64_t last_launched);

  // --- introspection ------------------------------------------------------------
  [[nodiscard]] std::int64_t last_completed(CommId comm) const;
  [[nodiscard]] std::int64_t last_launched(CommId comm) const;
  [[nodiscard]] bool reconfig_in_progress(CommId comm) const;
  [[nodiscard]] const std::vector<TraceRecord>& trace() const { return trace_; }

  /// Number of currently outstanding (launched, unfinished) collectives.
  [[nodiscard]] std::size_t active_count(CommId comm) const;

  /// Number of issued-but-held launches (waiting on a reconfiguration
  /// barrier). Diagnostics (telemetry_snapshot).
  [[nodiscard]] std::size_t held_count(CommId comm) const;

  /// Plan-cache counters of one communicator (see coll_plan.h).
  [[nodiscard]] CollPlanCache::Stats plan_cache_stats(CommId comm) const;
  /// Number of plans currently cached for one communicator.
  [[nodiscard]] std::size_t plan_cache_size(CommId comm) const;
  /// The cached plan for a shape under the current strategy, or nullptr.
  /// Test/bench hook; never builds.
  [[nodiscard]] std::shared_ptr<const CollPlan> cached_plan(
      CommId comm, coll::CollectiveKind kind, std::size_t count,
      coll::DataType dtype, int root) const;

 private:
  static constexpr std::int64_t kNone = -1;

  /// Mutable per-channel cursor + arrival state; everything structural lives
  /// in the shared CollPlan.
  struct ChannelExec {
    int channel = 0;
    std::size_t cur = 0;
    bool send_done = false;
    bool started = false;
    bool finished = false;
    std::vector<std::uint8_t> arrived;  ///< by plan recv-slot index
  };

  /// A chunk that arrived before its collective began here.
  struct EarlyChunk {
    int channel = 0;
    int transfer_tag = 0;
    Bytes len = 0;
    std::size_t at = 0;  ///< offset of its copied bytes in early_bytes
  };

  /// One sequence number of the window: an issued collective (held or
  /// launched) and the chunks that came for it before it began — possibly
  /// only those chunks, for a sequence number not issued yet.
  struct WindowEntry {
    WorkRequest req;  ///< set once issued (seq < next_seq)
    std::size_t trace_index = 0;
    gpu::ExternalOpToken token;  ///< its comm-stream op, once launched
    std::vector<EarlyChunk> early;  ///< in arrival order
    std::vector<std::byte> early_bytes;  ///< their bytes (move_data only)
  };

  /// The front collective once it began, reused from launch to launch so a
  /// warm launch allocates nothing here.
  struct RunningColl {
    bool begun = false;
    std::shared_ptr<const CollPlan> plan;  ///< launch-invariant structure
    std::vector<ChannelExec> channels;
    int channels_remaining = 0;
    // The buffers rank_buffers names for this rank.
    gpu::DevicePtr workbuf;   ///< write side (results land here)
    gpu::DevicePtr read_buf;  ///< read side for outgoing transfers
    gpu::DevicePtr scratch;   ///< ReduceScatter / Reduce working copy
  };

  /// Barrier state of one reconfiguration round (Fig. 4).
  struct RoundState {
    /// Set once the request arrived.
    std::shared_ptr<const CommStrategy> strategy;
    bool request_pending = false; ///< command received, not yet processed
    bool activated = false;       ///< command processed: launches held,
                                  ///< own value contributed to the barrier
    bool have_max = false;
    bool updating = false;  ///< connections being torn down / re-established
    std::vector<std::int64_t> values;
    int values_received = 0;
    std::int64_t max_seq = kNone;
  };

  /// One outstanding local P2P operation.
  struct P2pOp {
    P2pRequest req;
    bool launched = false;
  };
  /// Rendezvous state per (peer, direction) pair.
  struct P2pPeerState {
    std::uint64_t next_send_index = 0;
    std::uint64_t next_recv_index = 0;
    std::map<std::uint64_t, P2pOp> sends;  ///< by op index
    std::map<std::uint64_t, P2pOp> recvs;
    /// Send announcements that arrived before the recv was posted.
    struct PendingSend {
      Bytes bytes;
      gpu::DevicePtr src_buffer;
      GpuId src_gpu;
    };
    std::map<std::uint64_t, PendingSend> announced;
  };

  struct CommRank {
    explicit CommRank(const CollPlanCache::GpuCounters& plan_counters)
        : plan_cache(plan_counters) {}

    CommSetup setup;  ///< the shared record and this rank
    /// Shared with the communicator's other ranks and with the barrier rounds
    /// and control messages that carry the same decision.
    std::shared_ptr<const CommStrategy> strategy;
    gpu::Stream* comm_stream = nullptr;
    // The comm stream runs one collective at a time, so sequence numbers are
    // issued, launched, begun and completed in order: the issued ones are
    // (last_completed, next_seq), the launched ones (last_completed,
    // last_launched], and only the front can be running.
    std::uint64_t next_seq = 0;
    std::int64_t last_launched_seq = kNone;
    std::int64_t last_completed_seq = kNone;
    /// The oldest sequence number not completed: the window's front.
    [[nodiscard]] std::uint64_t front() const {
      return static_cast<std::uint64_t>(last_completed_seq + 1);
    }
    /// Sequence number s >= front() lives in slot s & (window.size() - 1);
    /// the size is a power of two, grown when a sequence number would wrap
    /// onto the front. Completing the front resets its slot for reuse.
    std::vector<WindowEntry> window;
    RunningColl running;  ///< the front, once it began
    std::uint64_t epoch = 0;  ///< connection generation (re-rolls ECMP)
    CollPlanCache plan_cache;  ///< plans of `strategy` (see coll_plan.h)
    std::map<std::uint64_t, RoundState> rounds;  ///< un-applied reconfig rounds
    std::uint64_t last_applied_round = 0;
    std::map<int, P2pPeerState> p2p;  ///< by peer rank
    bool destroy_requested = false;  ///< see mark_destroy_requested
  };

  CommRank& comm_state(CommId comm);
  const CommRank& comm_state(CommId comm) const;
  /// The teardown both paths share, orderly destroy and kill: free the
  /// communicator stream and erase the CommRank, so streams track live
  /// comms only.
  void release_comm(std::unordered_map<std::uint32_t, CommRank>::iterator it);
  /// Which teardown excuses a message that finds no rank here. Tenant work,
  /// the rank's own callbacks and the replies its outstanding work awaits
  /// are late only after a kill. Chunk deliveries, P2P send announcements
  /// and the reconfiguration protocol's messages are late after any
  /// teardown: they can outlive this rank's orderly destroy.
  enum class Late { kIfKilled, kIfGone };
  /// This GPU's installed rank of `comm`, or null for a message the
  /// Fabric's registry excuses as late under `late`. Any other message for
  /// a communicator with no rank here is a contract violation.
  CommRank* find_comm(CommId comm, Late late);

  /// The window entry of `seq`, which must not be completed yet; grows the
  /// window when `seq` lies beyond it.
  WindowEntry& window_entry(CommRank& st, std::uint64_t seq);
  /// Launch held collectives in order from last_launched + 1 while the
  /// reconfiguration gate allows them.
  void release_held(CommRank& st);
  void begin_execution(CommId comm, std::uint64_t seq);
  void start_step(CommRank& st, ChannelExec& ch);
  void check_advance(CommRank& st, ChannelExec& ch);
  void finish_channel(CommRank& st, ChannelExec& ch);
  void complete_collective(CommRank& st);
  /// Apply one chunk to the running collective; `bytes` is empty when data
  /// does not move.
  void apply_delivery(CommRank& st, int channel, int transfer_tag, Bytes len,
                      std::span<const std::byte> bytes);
  /// Move `t.bytes` from this GPU to `t.dst_gpu`: a same-host peer over the
  /// intra-host channel the proxy drives itself, any other through this
  /// GPU's NIC. `t.on_done` runs in one loop event once the bytes land.
  void post_transfer(ChunkTransfer t);

  // P2P helpers.
  void p2p_launch(CommRank& st, int peer, std::uint64_t op_index, bool is_send);
  void p2p_try_start_transfer(CommRank& st, int src_rank,
                              std::uint64_t op_index);
  void p2p_complete(CommId comm, int peer, std::uint64_t op_index,
                    bool is_send);

  // Reconfiguration protocol helpers.
  RoundState& get_round(CommRank& st, std::uint64_t round);
  /// The round currently gating launches (last_applied+1 if activated).
  RoundState* active_round(CommRank& st);
  void try_activate(CommRank& st);
  void send_control_to_successor(CommRank& st, std::uint64_t round, int origin,
                                 std::int64_t value);
  void check_barrier(CommRank& st, std::uint64_t round);
  void maybe_begin_update(CommRank& st);
  void begin_update(CommRank& st, std::uint64_t round);
  void finish_update(CommId comm, std::uint64_t round);

  ServiceContext* ctx_;
  GpuId gpu_;
  TransportEngine* transport_;
  std::unordered_map<std::uint32_t, CommRank> comms_;
  std::vector<TraceRecord> trace_;
  /// This GPU's plan-cache series, interned once at construction (label:
  /// gpu). Every rank's cache adds into them, so they outlive communicators.
  CollPlanCache::GpuCounters plan_counters_;
};

}  // namespace mccs::svc
