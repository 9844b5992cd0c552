#pragma once
// Flow-level network simulation.
//
// The Network owns the set of active flows and allocates bandwidth with
// weighted max-min fairness (progressive filling), the same model the paper's
// large-scale simulator uses ("our flow-level simulator assumes per-flow
// fairness", §6.5). Rates change only when the flow set changes — flow
// start, completion, cancellation, pause/resume (used by the traffic-
// scheduling QoS policy), or a background-flow change — at which point
// completion events are rescheduled on the EventLoop.
//
// Two flow classes:
//  * normal flows — carry a finite number of bytes; max-min fair share.
//  * background flows — model non-collective traffic (e.g., the 75 Gbps
//    flow in Fig. 7). They demand a fixed rate with strict priority over
//    normal flows, mirroring how external traffic appears to a tenant.
//
// Scaling: per-event cost is proportional to the *bottleneck component* of
// the changed flow, not the whole flow set. The Network maintains a per-link
// index (flow members, Σrate, normal-flow count), so a flow-set change only
// re-solves max-min over the flows transitively sharing a link with the
// changed flow; all other flows keep their rates and — critically — their
// already-scheduled completion events. Progress is integrated lazily per
// flow (`last_update`), so unaffected flows pay nothing. The global solver
// remains available as a cross-validation oracle via
// `Options::incremental = false`; both paths order flows identically
// (ascending id), so they produce bit-identical rates on disjoint
// components (see tests/test_netsim_properties.cpp).
//
// Storage (DESIGN.md §12): flow state lives in a slab of reusable slots
// (same idiom as sim::EventLoop), split into a hot SoA section — the four
// fields every solve touches, in dense parallel arrays — and a cold section
// (FlowSpec with its callbacks, telemetry fields, completion event, cohort)
// read only at flow boundaries. Flow ids are a monotone sequence that is
// never reused, so a stale id can never alias a recycled slot; `id_to_slot_`
// maps ids to live slots (or nothing). A flow's path is a PathView into the
// Routing's path arena — flows on the same cached route share its one copy,
// and the view outlives the flow's slot. Per-link membership removal is
// O(path) via per-(flow,link) backpointers instead of a scan. A latent
// flow's activation, and completions one solve left due at one exact
// instant, fire through one pooled Cohort record (DESIGN.md §15). At steady
// state (warm slab, scratch and cohort pool) a start/complete cycle performs
// no heap allocation, latent or not (guarded by tests/test_netsim_slab.cpp).

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "netsim/routing.h"
#include "netsim/topology.h"
#include "sim/event_loop.h"
#include "telemetry/telemetry.h"

namespace mccs::net {

struct FlowSpec {
  NodeId src;
  NodeId dst;
  Bytes size = 0;  ///< Payload bytes; ignored for background flows.

  /// Explicit path selector; invalid() means the switch applies ECMP hashing
  /// of `ecmp_key` (the multi-tenant-cloud default).
  RouteId route{};
  std::uint64_t ecmp_key = 0;

  /// Per-flow rate cap, e.g. a 50 Gbps virtual NIC (IB traffic-class rate
  /// limit in the testbed). Infinity = uncapped.
  Bandwidth rate_cap = std::numeric_limits<Bandwidth>::infinity();

  /// Fairness weight (per-flow fairness => 1.0).
  double weight = 1.0;

  /// Fixed delay before bytes start moving (propagation + connection setup).
  Time start_latency = 0.0;

  /// Background flow: demands `background_demand` bytes/s forever with
  /// strict priority; `size` and completion callbacks are unused.
  Bandwidth background_demand = 0.0;

  // Metadata consumed by policies / tracing.
  AppId app{};
  JobId job{};

  /// Invoked from the event loop when the last byte is delivered.
  std::function<void(FlowId, Time)> on_complete;
};

/// Administrative state of a physical link (fault injection). A down link
/// contributes zero capacity: flows crossing it keep their bytes and simply
/// stall at rate zero (no completion event) until the link recovers or the
/// flow is cancelled — never a silent completion. A degraded link keeps a
/// fraction of its nominal capacity; the rescale flows through the same
/// incremental max-min path as any other flow-set change. The control plane
/// does not read it: placement steers around a link only once the
/// controller has confirmed it failed (policy::Controller::mark_link_failed).
enum class LinkState { kUp, kDegraded, kDown };

/// Structured outcome of a max-min solve that could not make progress (a
/// pathological capacity state, e.g. a weight so small the share-per-weight
/// overflows). The affected flows are pinned at rate zero — degrading the
/// tenants that own them — instead of killing the whole multi-tenant service
/// with a contract violation.
struct AllocationError {
  Time at = 0.0;
  std::vector<FlowId> flows;  ///< pinned at rate zero, ascending id
};

class Network {
 public:
  struct Options {
    /// Component-scoped reallocation (the fast path). Off = re-solve the
    /// global max-min program on every flow-set change — the reference
    /// oracle the property tests cross-validate against.
    bool incremental = true;
    /// Same-instant solve coalescing: begin_batch()/end_batch() defer the
    /// per-mutation re-solve and run one union solve at batch close, and
    /// latent flows sharing an exact activation instant (or completions one
    /// solve left due at one) fire through one cohort event inside an
    /// internal batch. Semantically identical (zero virtual time elapses
    /// between the deferred mutations, so the skipped intermediate rate
    /// states transfer zero bytes — see DESIGN.md §15). Off = every batch is
    /// a no-op and every latent flow activates through a cohort of its own:
    /// the unbatched column the coalescing property tests and the bench's
    /// solves-per-event comparison run against.
    bool coalesce = true;
  };

  Network(sim::EventLoop& loop, const Topology& topo)
      : Network(loop, topo, Options{}) {}

  Network(sim::EventLoop& loop, const Topology& topo, Options options)
      : loop_(&loop),
        topo_(&topo),
        routing_(topo),
        options_(options),
        links_(topo.link_count()),
        link_states_(topo.link_count(), LinkState::kUp),
        capacity_scale_(topo.link_count(), 1.0),
        link_mark_(topo.link_count(), 0),
        batch_link_mark_(topo.link_count(), 0),
        residual_(topo.link_count(), 0.0),
        weight_scratch_(topo.link_count(), 0.0),
        link_bytes_(topo.link_count(), 0.0),
        link_sample_time_(topo.link_count(), 0.0) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const Routing& routing() const { return routing_; }
  [[nodiscard]] sim::EventLoop& loop() { return *loop_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Pre-size the flow slab and per-event scratch so a scale run (or the
  /// zero-allocation guard test) reaches steady state without growth:
  /// `concurrent` bounds simultaneously-live flows, `lifetime` bounds flow
  /// ids ever issued. Optional — the structures grow on demand otherwise.
  void reserve_flows(std::size_t concurrent, std::size_t lifetime);

  /// Per-flow-state slab cost in bytes, by temperature class: `hot` is the
  /// SoA touched every rate solve (remaining / rate / last_update / mark),
  /// `param` the per-flow solve parameters (path view, caps, weight,
  /// flags), `cold` everything touched only at start/completion (spec,
  /// timestamps, completion event, cohort). Compile-time facts surfaced for
  /// the scale bench, which reports bytes-per-flow-state alongside events/s.
  struct StorageFootprint {
    std::size_t hot = 0;
    std::size_t param = 0;
    std::size_t cold = 0;
    [[nodiscard]] std::size_t total() const { return hot + param + cold; }
  };
  [[nodiscard]] static StorageFootprint flow_state_footprint();

  // --- batched-mutation epochs ----------------------------------------------
  // A solve batch coalesces every flow-set mutation issued at one virtual
  // instant into a single component discovery + max-min solve at batch
  // close. Inside a batch, start/cancel/pause/resume/set_link_state apply
  // their structural change immediately (indexes, link state, tombstones)
  // but defer the re-solve, accumulating the union of dirty
  // seed links; rates read mid-batch are the pre-batch ones. Batches nest
  // (the outermost close solves) and MUST NOT span virtual time: the
  // zero-elapsed-time identity argument — intermediate rates transfer zero
  // bytes, and completion events scheduled mid-batch would be superseded by
  // the final solve — only holds at one instant, so end_batch checks the
  // clock did not move. An empty batch (no deferred mutation) solves
  // nothing. With Options::coalesce off both calls are no-ops.

  void begin_batch();
  void end_batch();

  /// RAII batch scope: `Network::SolveBatch batch(net);` around a burst of
  /// same-instant mutations (a collective launch, a mass cancel, a fault
  /// epoch).
  class SolveBatch {
   public:
    explicit SolveBatch(Network& net) : net_(&net) { net_->begin_batch(); }
    ~SolveBatch() { net_->end_batch(); }
    SolveBatch(const SolveBatch&) = delete;
    SolveBatch& operator=(const SolveBatch&) = delete;

   private:
    Network* net_;
  };

  /// Max-min solves actually run (each allocate_component pass). Mirrored to
  /// the metrics registry as `netsim_solves_total` when telemetry is
  /// attached. With coalescing, a batch of N same-instant mutations pays 1.
  [[nodiscard]] std::uint64_t solves_total() const { return stats_.solves; }

  /// What solve epochs cost, summed over the Network's life. The counts
  /// cover every solve. The phase times cover one solve in
  /// kTimedSolveStride (`timed` of them, starting with the first), read
  /// from steady_clock at each phase boundary; together they are the epoch.
  struct SolveStats {
    std::uint64_t solves = 0;
    std::uint64_t flows = 0;        ///< allocatable flows collected
    std::uint64_t links = 0;        ///< links collected
    std::uint64_t labels = 0;       ///< sub-components, empty ones included
    std::uint64_t rounds = 0;       ///< water-filling rounds
    std::uint64_t completions = 0;  ///< completion instants re-derived
    std::uint64_t timed = 0;        ///< solves whose phases were clocked
    double discover_s = 0.0;  ///< discovery with its per-label sorts
    double solve_s = 0.0;     ///< every label filled, water-filled and applied
    double schedule_s = 0.0;  ///< completion events onto the loop
    double refresh_s = 0.0;   ///< link throughput, byte integrals, link sample
  };
  static constexpr std::uint64_t kTimedSolveStride = 64;
  [[nodiscard]] const SolveStats& solve_stats() const { return stats_; }

  /// Mutations whose re-solve was absorbed into a batch-close union solve
  /// (registry name: `netsim_coalesced_flows_total`).
  [[nodiscard]] std::uint64_t coalesced_flows_total() const {
    return coalesced_flows_total_;
  }
  /// Non-empty batch closes (mean batch width = coalesced / batches).
  [[nodiscard]] std::uint64_t batches_total() const { return batches_total_; }

  /// Start a flow; the path is resolved immediately (route id or ECMP).
  FlowId start_flow(FlowSpec spec);

  /// Cancel a flow (e.g., tearing down peer-to-peer connections during a
  /// reconfiguration). No completion callback fires.
  void cancel_flow(FlowId id);

  /// Gate a flow off/on without losing progress (traffic-scheduling QoS).
  void pause_flow(FlowId id);
  void resume_flow(FlowId id);

  /// Liveness by id. Ids are never reused, so a cancelled/completed flow's id
  /// stays dead forever even after its slab slot is recycled. O(1).
  [[nodiscard]] bool flow_active(FlowId id) const {
    return slot_of(id.get()) != kNoSlot;
  }
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;
  [[nodiscard]] Bytes flow_remaining(FlowId id) const;
  /// View of the flow's path in the routing's path arena. Stable for the
  /// lifetime of the Network (cached paths are never freed); copy with
  /// `.to_path()` for consumers that outlive it.
  [[nodiscard]] PathView flow_path(FlowId id) const;
  [[nodiscard]] const FlowSpec& flow_spec(FlowId id) const;
  [[nodiscard]] std::size_t active_flow_count() const { return live_count_; }
  /// All live flow ids, ascending (diagnostics, telemetry_snapshot). Served by
  /// walking the slab's live list, which is insertion-ordered — and insertion
  /// order is id order because ids are monotone. No sort, no hashing.
  [[nodiscard]] std::vector<FlowId> active_flows() const;

  // --- fault injection -------------------------------------------------------
  /// Administratively change a link's state. kDegraded keeps
  /// `capacity_fraction` (in (0, 1]) of the nominal capacity; kDown drops it
  /// to zero (flows crossing the link stall); kUp restores it. Rates of the
  /// affected bottleneck component are recomputed immediately.
  void set_link_state(LinkId id, LinkState state, double capacity_fraction = 1.0);
  [[nodiscard]] LinkState link_state(LinkId id) const {
    MCCS_EXPECTS(id.get() < link_states_.size());
    return link_states_[id.get()];
  }
  [[nodiscard]] double link_capacity_fraction(LinkId id) const {
    MCCS_EXPECTS(id.get() < capacity_scale_.size());
    return capacity_scale_[id.get()];
  }

  /// Observer for unsatisfiable allocations (see AllocationError). Invoked
  /// from a fresh event-loop event, so the handler may start/cancel flows.
  void set_allocation_error_handler(std::function<void(const AllocationError&)> h) {
    allocation_error_handler_ = std::move(h);
  }
  [[nodiscard]] std::uint64_t allocation_error_count() const {
    return allocation_error_count_;
  }

  /// Instantaneous throughput over a link (sum of flow rates), for the
  /// provider's monitoring plane. O(1): served from the per-link index.
  [[nodiscard]] Bandwidth link_throughput(LinkId id) const {
    MCCS_EXPECTS(id.get() < links_.size());
    return links_[id.get()].throughput;
  }

  /// Number of normal (non-background) flows currently traversing a link.
  /// O(1): served from the per-link index.
  [[nodiscard]] std::size_t link_flow_count(LinkId id) const {
    MCCS_EXPECTS(id.get() < links_.size());
    return links_[id.get()].normal_count;
  }

  /// Attach fabric telemetry: flow-lifetime spans and per-link allocated-rate
  /// counter samples land on the timeline when it is enabled. The utilization
  /// integral behind link_bytes() is maintained regardless (it only reads the
  /// throughput the solver already computed, so it cannot perturb the sim).
  /// Also binds the always-live `netsim_solves_total` /
  /// `netsim_coalesced_flows_total` registry counters.
  void set_telemetry(telemetry::Telemetry* t);

  /// Cumulative bytes carried by a link (allocated-rate integral up to now),
  /// for the provider's monitoring plane and telemetry snapshots.
  [[nodiscard]] double link_bytes(LinkId id) const {
    MCCS_EXPECTS(id.get() < links_.size());
    return link_bytes_[id.get()] +
           links_[id.get()].throughput * (loop_->now() - link_sample_time_[id.get()]);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kNoCohort = 0xffffffffu;

  /// Sentinel for "no completion scheduled" in FlowCold::completion_at.
  static constexpr Time kNoCompletion = std::numeric_limits<Time>::infinity();

  /// Cold per-flow state: read at flow boundaries (start / completion /
  /// cancel / telemetry), never inside a solve.
  struct FlowCold {
    FlowSpec spec;
    Time created = 0.0;  ///< start_flow time (telemetry span begin)
    /// The instant the flow's completion is scheduled at (bit pattern of the
    /// queued event's time), or kNoCompletion. A solve that re-derives the
    /// flow's rate at exactly this instant treats the flow as done instead
    /// of re-integrating its remaining bytes: `now + rem/rate` rounds, so
    /// integrating back rarely recovers exactly zero, and without the clamp
    /// an unrelated same-instant mutation would push the completion one ulp
    /// past the instant the event queue already holds.
    Time completion_at = kNoCompletion;
    sim::EventLoop::Handle completion;  ///< a completion of its own
    /// The Cohort (index into cohorts_) the flow waits in, or kNoCohort:
    /// its activation while latent, a shared completion once started.
    std::uint32_t cohort = kNoCohort;
  };

  /// Warm per-flow parameters: what component discovery and the solver need
  /// besides the hot arrays (path, class, weight/cap, gating state).
  struct FlowParam {
    PathView path;
    Bandwidth rate_cap = 0.0;
    double weight = 1.0;
    Bandwidth background_demand = 0.0;
    std::uint32_t seq = 0;   ///< external flow id (monotone, never reused)
    bool started = false;    ///< start_latency elapsed
    bool paused = false;
  };

  /// Per-link view of the allocatable flows crossing it, maintained on every
  /// flow add/remove/pause/resume and refreshed when rates change. `pos` is
  /// the member flow's hop index on its own path — the backpointer slot in
  /// link_pos_ that makes swap-removal O(1).
  struct LinkIndex {
    struct Member {
      std::uint32_t slot;
      std::uint32_t pos;
    };
    std::vector<Member> flows;  ///< allocatable members (both classes)
    Bandwidth throughput = 0.0; ///< Σ rate over `flows`
    std::size_t normal_count = 0;  ///< members with no background demand
  };

  [[nodiscard]] std::uint32_t slot_of(std::uint32_t id) const {
    return id < id_to_slot_.size() ? id_to_slot_[id] : kNoSlot;
  }
  [[nodiscard]] std::uint32_t checked_slot(std::uint32_t id) const {
    const std::uint32_t s = slot_of(id);
    MCCS_EXPECTS(s != kNoSlot);
    return s;
  }

  [[nodiscard]] bool allocatable(std::uint32_t slot) const {
    const FlowParam& p = param_[slot];
    return p.started && !p.paused;
  }

  /// Integrate a flow's progress up to `now` at its current rate.
  void touch(std::uint32_t slot, Time now) {
    if (now > hot_last_update_[slot] && param_[slot].background_demand <= 0.0) {
      hot_remaining_[slot] = std::max(
          0.0, hot_remaining_[slot] -
                   hot_rate_[slot] * (now - hot_last_update_[slot]));
    }
    hot_last_update_[slot] = now;
  }

  std::uint32_t acquire_slot();      ///< from the free list, else grown
  void release_slot(std::uint32_t slot);  ///< unlink, clear cold, recycle

  void insert_into_index(std::uint32_t slot);
  void remove_from_index(std::uint32_t slot);

  /// Gather the allocatable flows reachable from `seed` through shared links
  /// into comp_flows_ and their links into comp_links_, loading each link's
  /// residual capacity as it is reached. One BFS runs per seed link no
  /// earlier BFS reached, under a fresh dirty sub-component label: a
  /// SubComp holding the contiguous range of comp_flows_ that BFS appended,
  /// sorted by flow id. Reference mode then continues from every
  /// allocatable flow still unreached, under clean labels, so it gathers
  /// everything.
  void collect_component(PathView seed);

  /// Fill, solve and apply each labelled sub-component in turn (rates and
  /// completion instants; a clean sub-component keeps a flow whose rate is
  /// bitwise unchanged), schedule the completions, then refresh the
  /// collected links' throughput.
  void allocate_component();

  /// Flow-set change entry point: scope to `seed`'s component (or everything
  /// in reference mode) and re-allocate — or, inside an open batch, merge
  /// `seed` into the pending union and defer the solve to batch close.
  /// Allocation-free at steady state.
  void reallocate(PathView seed);

  /// The undeferred body of reallocate (collect + allocate + count).
  void solve_now(PathView seed);

  /// Phase clock of a timed solve: charge the time since the last lap to
  /// `phase_s`. A no-op on untimed solves.
  void lap(double& phase_s) {
    if (!timing_) return;
    const auto t = std::chrono::steady_clock::now();
    phase_s += std::chrono::duration<double>(t - lap_start_).count();
    lap_start_ = t;
  }

  void complete_flow(std::uint32_t id);

  /// A pooled cohort with no members whose event fires at `at`.
  std::uint32_t open_cohort(Time at);
  void add_member(std::uint32_t idx, std::uint32_t slot);
  /// Take `slot` out of its cohort, if any (cancel, pause, rate change): a
  /// cohort whose last member leaves is closed.
  void leave_cohort(std::uint32_t slot);
  /// Drop the cohort's event and return it to the pool.
  void close_cohort(std::uint32_t idx);
  /// Cohort `idx`'s event: every member still in it, in enrollment order,
  /// activates (latent) or completes (started) inside one internal batch —
  /// one solve for the whole same-instant burst.
  void fire_cohort(std::uint32_t idx);

  /// Turn the solve's completion list (pending_completions_) into loop
  /// events in (instant, flow id) order. With coalescing, flows due at a
  /// bit-identical instant share one cohort event and the rest get the
  /// classic per-flow event; without it every flow gets its own.
  void schedule_pending_completions();

  /// Timeline span for a flow that just left the network (delivered or
  /// cancelled). No-op unless telemetry is enabled.
  void emit_flow_span(std::uint32_t slot, bool completed);

  sim::EventLoop* loop_;
  const Topology* topo_;
  Routing routing_;
  Options options_;

  // --- flow slab -------------------------------------------------------------
  // Parallel arrays indexed by slot. Hot SoA section first: the fields every
  // solve reads/writes, kept dense so a component walk stays cache-resident.
  std::vector<double> hot_remaining_;    ///< bytes left as of last_update
  std::vector<Bandwidth> hot_rate_;
  std::vector<Time> hot_last_update_;    ///< when remaining was integrated
  std::vector<std::uint64_t> hot_mark_;  ///< component-BFS visit epoch
  std::vector<FlowParam> param_;
  std::vector<FlowCold> cold_;
  /// Backpointers: link_pos_[slot][k] = this flow's index in
  /// links_[path[k]].flows while the flow is in the index. The inner vectors
  /// are recycled with their slot, so a warm slab never reallocates them.
  std::vector<std::vector<std::uint32_t>> link_pos_;
  /// Insertion-ordered doubly-linked list of live slots (== ascending id).
  std::vector<std::uint32_t> live_next_;
  std::vector<std::uint32_t> live_prev_;
  std::uint32_t live_head_ = kNoSlot;
  std::uint32_t live_tail_ = kNoSlot;
  std::size_t live_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  /// External id -> slot (kNoSlot once the flow is gone). Ids are issued
  /// sequentially, so this is a flat array, not a hash.
  std::vector<std::uint32_t> id_to_slot_;
  std::uint32_t next_flow_id_ = 0;

  std::vector<LinkIndex> links_;
  std::vector<LinkState> link_states_;
  std::vector<double> capacity_scale_;  ///< effective = nominal * scale

  std::function<void(const AllocationError&)> allocation_error_handler_;
  std::uint64_t allocation_error_count_ = 0;
  std::vector<std::uint32_t> unsatisfied_scratch_;

  // Scratch for component discovery + allocation (persistent to avoid O(L)
  // work per event; only entries for comp_links_ are ever read or written).
  /// (flow id << 32) | slot, one contiguous range per label (see SubComp).
  std::vector<std::uint64_t> comp_flows_;
  std::vector<std::uint32_t> comp_links_;
  std::vector<std::uint64_t> link_mark_;
  std::uint64_t epoch_ = 0;

  // --- batched-mutation epochs ----------------------------------------------
  // Deferred-solve state for an open batch. The dirty seed union is deduped
  // through its own mark array (link_mark_/epoch_ belong to
  // collect_component, which the batch-close solve itself consumes).
  int batch_depth_ = 0;
  Time batch_time_ = 0.0;           ///< outermost begin_batch instant
  std::size_t batch_pending_ = 0;   ///< deferred mutations in the open batch
  std::vector<LinkId> batch_seed_links_;
  std::vector<std::uint64_t> batch_link_mark_;
  std::uint64_t batch_epoch_ = 0;

  /// Flows that fire through one loop event at one exact instant (DESIGN.md
  /// §15): latent flows sharing an activation instant (the event sits at the
  /// loop seq the first member's own activation would have held), or flows
  /// one solve left due to complete at one instant (the symmetric-rate
  /// cascade). A member that leaves stays in `members` — ids are never
  /// reused, so the fire walk skips it by its FlowCold::cohort — and `live`
  /// counts those still in, so a cohort whose last member leaves drops its
  /// event just as per-flow cancellation would. Records live in a
  /// high-water pool, so steady-state churn allocates nothing.
  struct Cohort {
    std::vector<std::uint32_t> members;  ///< external flow ids, enrollment order
    std::uint32_t live = 0;
    sim::EventLoop::Handle event;
  };
  std::vector<Cohort> cohorts_;              ///< pool, never shrunk
  std::vector<std::uint32_t> free_cohorts_;  ///< recycled pool slots
  /// Activation cohorts a latent flow can still join (coalescing only),
  /// as (instant bits, cohort), sorted by bits.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> open_activations_;
  /// A completion instant one solve derived; the instant itself is in the
  /// flow's FlowCold::completion_at.
  struct PendingCompletion {
    std::uint64_t bits;  ///< completion-instant Time bit pattern (sort key)
    std::uint32_t id;    ///< external flow id (tie-break within an instant)
    std::uint32_t slot;
  };
  std::vector<PendingCompletion> pending_completions_;  ///< per solve

  SolveStats stats_;
  bool timing_ = false;  ///< the running solve is clocked (see lap)
  std::chrono::steady_clock::time_point lap_start_;
  std::uint64_t coalesced_flows_total_ = 0;
  std::uint64_t batches_total_ = 0;
  telemetry::Counter* solves_counter_ = nullptr;
  telemetry::Counter* coalesced_counter_ = nullptr;

  std::vector<Bandwidth> residual_;
  std::vector<double> weight_scratch_;

  // Disjoint sub-components of a collected flow set, one per discovery
  // label. Each is filled into the two solver lists, solved and applied on
  // its own (see allocate_component for why they solve apart).
  struct AllocFlow {
    std::uint32_t slot;
    PathView path;
    double weight;
    Bandwidth cap;
    Bandwidth rate = 0.0;
    bool fixed = false;
  };
  struct SubComp {
    std::uint32_t begin;  ///< [begin, end) of comp_flows_, ascending flow id
    std::uint32_t end;
    /// Discovered from a seed (mutated) link. Progress integration anchors
    /// only in dirty sub-components, so the anchor set — and therefore every
    /// remaining-bytes bit pattern — is a pure function of the mutation
    /// timeline, identical across incremental/reference collection and
    /// per-event/batched solve grouping (DESIGN.md §15).
    bool dirty;
  };
  std::vector<SubComp> comps_;  ///< labels issued by the last discovery
  std::vector<AllocFlow> alloc_background_;  ///< one label's lists at a time
  std::vector<AllocFlow> alloc_normal_;

  /// Weighted max-min fair allocation with per-flow caps (progressive
  /// filling), scoped to one bottleneck component (see network.cpp). Adds
  /// its water-filling rounds to `rounds`.
  static bool max_min_allocate(std::vector<AllocFlow>& flows,
                               std::vector<Bandwidth>& residual,
                               std::vector<double>& weight_on_link,
                               std::vector<std::uint32_t>& unsatisfied,
                               std::uint64_t& rounds);

  // Link-utilization sampler: cumulative bytes as of `link_sample_time_`,
  // integrated from the allocated rate whenever a link's throughput is
  // refreshed (end of allocate_component touches exactly the changed links).
  telemetry::Telemetry* telemetry_ = nullptr;
  std::vector<double> link_bytes_;
  std::vector<Time> link_sample_time_;
  int flow_track_ = -1;  ///< lazily interned (enabled mode only)
  int link_track_ = -1;
  /// Counter series keys ("linkN"), built once when recording starts: the
  /// timeline retains keys by pointer, so they must stay at fixed addresses.
  std::vector<std::string> link_counter_names_;
  /// Index of the latest link_gbps counter sample (burst coalescing).
  std::size_t link_sample_event_ = telemetry::Timeline::kNoSample;
  /// Reused arg buffer for the batched per-reallocation counter sample.
  std::vector<telemetry::Arg> counter_scratch_;

  friend class NetworkTestPeer;  ///< white-box slab assertions in tests
};

}  // namespace mccs::net
