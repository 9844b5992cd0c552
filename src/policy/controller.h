#pragma once
// The external controller of §4.3: a centralized manager that consumes the
// MCCS management API (communicator placements, strategies, traces) and
// drives policy — ring configuration at communicator creation, flow
// (re)assignment whenever a job joins or exits, priority flow assignment,
// and time-window traffic scheduling.
//
// Flow assignment runs warm: one IncrementalAssigner keeps the placement
// alive across control events and re-solves only the dirty closure of each
// one (the tenants and links the event touched). Its result is bitwise the
// one-shot assign_flows greedy over the live communicators in ascending id
// order (flow_assign.h), which stays the audit and test oracle.

#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "collectives/compiler.h"
#include "mccs/fabric.h"
#include "policy/flow_assign.h"
#include "policy/ring_config.h"
#include "policy/traffic_schedule.h"

namespace mccs::policy {

class Controller {
 public:
  enum class RingPolicy {
    kUserOrder,      ///< NCCL behaviour: ring follows user rank order
    kLocalityAware,  ///< example #1: group by host/rack/pod
  };
  enum class FlowPolicy {
    kEcmp,  ///< no explicit routes (the cloud default)
    kFfa,   ///< example #2: best-fit fair flow assignment
    kPfa,   ///< example #3: FFA with routes reserved for priority apps
  };

  explicit Controller(svc::Fabric& fabric) : fabric_(&fabric) {}
  /// Releases the link-change consumer so a dead controller never pins the
  /// network's change log. NOTE: the destructor does NOT detach the strategy
  /// provider / stall handler (the fabric holds std::functions bound to
  /// this); a restart must attach the successor before creating any
  /// communicator.
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  void set_ring_policy(RingPolicy p) { ring_policy_ = p; }
  void set_flow_policy(FlowPolicy p) { flow_policy_ = p; }

  /// Route the pairwise mesh too (AllToAll-heavy tenants, e.g. MoE).
  void set_route_pairwise_mesh(bool v) { route_mesh_ = v; }

  /// Closure statistics of the last route decision (zeros before the
  /// first one).
  [[nodiscard]] const IncrementalSolveStats& last_solve_stats() const {
    return last_solve_stats_;
  }

  /// PFA configuration: which apps are prioritised and which route indices
  /// are reserved for them.
  void set_high_priority(AppId app) { priority_apps_.insert(app.get()); }
  void clear_high_priority(AppId app) { priority_apps_.erase(app.get()); }
  void set_reserved_routes(std::unordered_set<std::uint32_t> routes) {
    reserved_routes_ = std::move(routes);
  }

  /// Register as the fabric's strategy provider. From then on every new
  /// communicator gets its initial strategy from this controller, and — when
  /// a flow policy is active — existing communicators are rebalanced (via
  /// runtime reconfiguration) as jobs join.
  void attach();

  /// Recompute flow assignment for all live communicators and reconfigure
  /// those whose routes changed. Called automatically on job arrival when
  /// attached; call manually after a job exits.
  void rebalance();

  // --- algorithm choice -----------------------------------------------------------

  /// Swap a live communicator's collective algorithm mid-job, through the
  /// Fig.-4 barrier: flow assignment re-runs with the new algorithm's
  /// compiled edge list (the swapped communicator's flows move to the new
  /// edges; neighbours whose placement that disturbs reconfigure too), then
  /// the new strategy installs via runtime reconfiguration — in-flight
  /// collectives drain on the old plan, held launches replay on the new
  /// one, and the algorithm-keyed plan cache compiles the new schedules.
  /// `tree_pipeline_chunks` of 0 keeps the communicator's current setting.
  /// Returns false (no-op) when nothing would change.
  bool swap_algorithm(CommId comm, coll::Algorithm algorithm,
                      std::size_t tree_pipeline_chunks = 0);

  /// The alpha-beta cost parameters the selection pass uses on this fabric:
  /// alpha from the service's per-step latency constants, beta from the
  /// NIC uplink rate of the cluster's first GPU.
  [[nodiscard]] coll::CostParams cost_params() const;

  /// Time-window QoS (example #4): pull `prio`'s trace from the management
  /// API, find its idle cycles, and confine every app in `others` to them.
  /// Returns false when the trace is too short to analyse.
  bool apply_time_schedule(AppId prio, const std::vector<AppId>& others,
                           Time guard = 0.0);

  /// Offline-profile TS variant: the administrator supplies the prioritised
  /// app's iteration period (and phase anchor); the busy set is folded from
  /// the app's trace (policy::complement_of_busy). Returns false if the
  /// resulting schedule would leave the others no usable window.
  bool apply_profiled_schedule(AppId prio, const std::vector<AppId>& others,
                               Time period, Time t0, Time guard = 0.0);

  void clear_time_schedule(const std::vector<AppId>& apps);

  /// The ring strategy this controller would pick for a communicator (no
  /// flow assignment applied).
  [[nodiscard]] svc::CommStrategy ring_strategy(const svc::CommInfo& info) const;

  // --- fault recovery -------------------------------------------------------------

  /// One failure-triggered reconfiguration, for tests and benchmarks.
  struct RecoveryRecord {
    Time detected = 0.0;      ///< stall report confirmed against a dead link
    Time reconfigured = 0.0;  ///< reconfigure commands issued to all ranks
    LinkId link{};            ///< the newly confirmed-failed link
    int comms_reconfigured = 0;
  };

  /// Register as the fabric's transport-stall sink: escalations whose path
  /// crosses a link the network reports down mark that link failed and
  /// trigger a reconfiguration of every affected communicator over the
  /// surviving capacity (through the Fig.-4 barrier). Idempotent per link.
  void enable_fault_recovery();

  /// Manual failure management (operator / test hooks). Marking also
  /// triggers the same reconfiguration pass as an escalation would.
  void mark_link_failed(LinkId link);
  void clear_link_failed(LinkId link);

  [[nodiscard]] std::vector<LinkId> failed_links() const;

  // --- crash / restart recovery ---------------------------------------------------

  /// Everything a restarted controller needs to resume WITHOUT a full
  /// re-solve: its placement decisions (the warm assignment), the dynamic
  /// failure state it had discovered, and the change-log cursor marking the
  /// last netsim event it had consumed. Static configuration (policies,
  /// priority apps, reserved routes) is deliberately excluded — the operator
  /// re-applies it on restart, exactly as a real deployment redeploys config.
  struct ControllerSnapshot {
    std::size_t link_change_cursor = 0;  ///< first log index NOT yet consumed
    std::unordered_set<std::uint32_t> failed_links;
    std::unordered_map<std::uint32_t, RouteMap> assignments;
  };
  /// Capture the current decision state (cheap; safe at any quiesce point).
  [[nodiscard]] ControllerSnapshot snapshot() const;

  enum class RestoreOutcome {
    kWarmReplay,   ///< log replay from the cursor covered the outage
    kColdRebuild,  ///< history trimmed past the cursor: full re-solve forced
  };
  /// Resume from `snap` on this (freshly constructed) controller. Registers
  /// a change-log consumer AT the snapshot cursor so every link event that
  /// fired during the outage replays into the dirty closure; adopts the
  /// snapshot assignment as the warm state; then rebalances (comms whose
  /// routes moved during the outage reconfigure).
  /// When the network trimmed the log past the cursor, restore REFUSES to
  /// gap silently: it counts controller_cold_rebuild_total in the fabric's
  /// metrics, discards the warm assignment, and re-solves everything from
  /// scratch. Either way the post-restore assignment is correct; the outcome
  /// only tells how much work it cost.
  RestoreOutcome restore(const ControllerSnapshot& snap);

  /// The warm assigner (constructed on first use). Tests and the chaos
  /// harness reach through it for audit configuration and state poisoning.
  [[nodiscard]] IncrementalAssigner& warm_assigner();
  [[nodiscard]] const std::vector<RecoveryRecord>& recovery_log() const {
    return recovery_log_;
  }

 private:
  svc::CommStrategy provide(const svc::CommInfo& info);

  void on_stall(const svc::StallReport& report);
  /// TS policy-decision instant on the fabric's timeline (no-op if disabled).
  void emit_ts_instant(const char* name, AppId prio,
                       const std::vector<AppId>& others,
                       const svc::TrafficSchedule& schedule);
  /// Re-route all live communicators around failed_links_; reconfigures the
  /// ones whose routes changed (always including `must_move` if valid).
  int reconfigure_around_failures(AppId must_move);

  /// The one route path: sync the warm assigner with `live` (the fabric's
  /// communicators, ascending id), feed it the network's link change-set and
  /// this controller's failed/reserved/priority state, then re-solve the
  /// dirty closure. `extra` names either a communicator not yet registered
  /// (arrival) or a live one whose strategy is being replaced (algorithm
  /// swap) — in the latter case `extra_strategy` overrides the fabric's
  /// current strategy, which still reads pre-barrier. Routes are read back
  /// through warm_assigner().routes_of.
  void compute_routes(const std::vector<svc::CommInfo>& live,
                      const svc::CommInfo* extra,
                      const svc::CommStrategy* extra_strategy);
  /// compute_routes' diff of `live` (plus `extra`) against the warm items:
  /// departures, arrivals, flow-shape changes and priority flips.
  void sync_items(const std::vector<svc::CommInfo>& live,
                  const svc::CommInfo* extra,
                  const svc::CommStrategy* extra_strategy);

  /// One route decision: compute_routes over the current live set, then
  /// reconfigure every live communicator whose installed routes differ from
  /// the solved ones, every communicator of `must_move` (if valid), and a
  /// live `extra` (the swapped communicator, installed with
  /// `extra_strategy`). Returns how many communicators were reconfigured.
  int reassign(const svc::CommInfo* extra,
               const svc::CommStrategy* extra_strategy, AppId must_move);

  svc::Fabric* fabric_;
  RingPolicy ring_policy_ = RingPolicy::kLocalityAware;
  FlowPolicy flow_policy_ = FlowPolicy::kFfa;
  bool route_mesh_ = false;
  std::unordered_set<std::uint32_t> priority_apps_;
  std::unordered_set<std::uint32_t> reserved_routes_;
  std::unordered_set<std::uint32_t> failed_links_;
  std::vector<RecoveryRecord> recovery_log_;

  std::unique_ptr<IncrementalAssigner> assigner_;  ///< lazily built
  /// Registered link-change consumer (lazily, at the first decision). Acking
  /// what we consumed lets the network trim the change log behind us.
  int link_change_consumer_ = -1;
  IncrementalSolveStats last_solve_stats_;
};

}  // namespace mccs::policy
