#include "policy/controller.h"

#include <algorithm>
#include <string>

namespace mccs::policy {
namespace {

/// The controller's timeline track ("policy" process), or -1 when the
/// fabric's timeline is disabled.
int controller_track(svc::Fabric& fabric) {
  if (!fabric.telemetry().enabled()) return -1;
  return fabric.telemetry().timeline().track("policy", "controller");
}

}  // namespace

Controller::~Controller() {
  if (link_change_consumer_ >= 0) {
    fabric_->network().unregister_link_change_consumer(link_change_consumer_);
  }
}

IncrementalAssigner& Controller::warm_assigner() {
  if (assigner_ == nullptr) {
    assigner_ = std::make_unique<IncrementalAssigner>(
        fabric_->cluster(), fabric_->network().routing());
  }
  return *assigner_;
}

Controller::ControllerSnapshot Controller::snapshot() const {
  ControllerSnapshot snap;
  net::Network& network = fabric_->network();
  snap.link_change_cursor =
      link_change_consumer_ >= 0
          ? network.link_change_cursor(link_change_consumer_)
          : network.link_change_end();
  snap.failed_links = failed_links_;
  if (assigner_ != nullptr) snap.assignments = assigner_->assignments();
  return snap;
}

Controller::RestoreOutcome Controller::restore(const ControllerSnapshot& snap) {
  MCCS_EXPECTS(link_change_consumer_ < 0);  // a fresh controller restores
  failed_links_ = snap.failed_links;
  net::Network& network = fabric_->network();
  IncrementalAssigner& assigner = warm_assigner();

  // Re-register WHERE the dead controller stopped reading, so every link
  // event that fired during the outage replays into the next solve's dirty
  // closure. The network refuses the registration when it has trimmed the
  // log past the cursor — a silent gap here would mean silently stale
  // routes, the exact failure the audit subsystem exists to catch late.
  const net::Network::LinkChangeRegistration reg =
      network.register_link_change_consumer_at(snap.link_change_cursor);
  RestoreOutcome outcome;
  if (reg.ok()) {
    link_change_consumer_ = reg.consumer;
    outcome = RestoreOutcome::kWarmReplay;
  } else {
    // Trimmed history: the events in [cursor, earliest) are unrecoverable,
    // so the snapshot's warm assignment cannot be trusted. Rebuild cold —
    // loudly — from the current fabric state.
    fabric_->telemetry()
        .metrics()
        .counter("controller_cold_rebuild_total")
        .increment();
    link_change_consumer_ = network.register_link_change_consumer();
    outcome = RestoreOutcome::kColdRebuild;
  }

  // Seed the assigner with the live communicator set, then either adopt the
  // snapshot's decisions (warm) or leave everything dirty (cold). rebalance()
  // runs the replayed/dirty solve and pushes any changed routes out.
  sync_items(fabric_->list_communicators(), nullptr, nullptr);
  if (outcome == RestoreOutcome::kWarmReplay) {
    assigner.adopt_assignment(snap.assignments);
  }
  rebalance();
  return outcome;
}

void Controller::attach() {
  fabric_->set_strategy_provider(
      [this](const svc::CommInfo& info) { return provide(info); });
}

svc::CommStrategy Controller::ring_strategy(const svc::CommInfo& info) const {
  svc::CommStrategy s =
      ring_policy_ == RingPolicy::kLocalityAware
          ? locality_aware_strategy(info.gpus, fabric_->cluster())
          : svc::nccl_default_strategy(info.gpus, fabric_->cluster());
  s.route_pairwise_mesh = route_mesh_;
  return s;
}

void Controller::compute_routes(const std::vector<svc::CommInfo>& live,
                                const svc::CommInfo* extra,
                                const svc::CommStrategy* extra_strategy) {
  IncrementalAssigner& assigner = warm_assigner();
  assigner.set_telemetry(&fabric_->telemetry());
  assigner.set_reserved_routes(flow_policy_ == FlowPolicy::kPfa
                                   ? reserved_routes_
                                   : std::unordered_set<std::uint32_t>{});
  assigner.set_failed_links(failed_links_);
  // Consume the netsim's change-set: links whose administrative state moved
  // since the last solve dirty exactly the tenants routed across them. The
  // ack releases consumed entries for trimming, bounding the log's memory.
  net::Network& network = fabric_->network();
  if (link_change_consumer_ < 0) {
    link_change_consumer_ = network.register_link_change_consumer();
  }
  const std::size_t end = network.link_change_end();
  for (std::size_t i = network.link_change_cursor(link_change_consumer_);
       i < end; ++i) {
    assigner.mark_link_dirty(network.link_change(i).link);
  }
  network.ack_link_changes(link_change_consumer_, end);

  sync_items(live, extra, extra_strategy);
  last_solve_stats_ = assigner.solve(fabric_->loop().now());
}

void Controller::sync_items(const std::vector<svc::CommInfo>& live,
                            const svc::CommInfo* extra,
                            const svc::CommStrategy* extra_strategy) {
  IncrementalAssigner& assigner = warm_assigner();
  // Departures first (their freed demand seeds the closure), then arrivals,
  // strategy and priority changes. Both id lists ascend, so one merge walk
  // finds the departures.
  auto next = live.begin();
  for (CommId id : assigner.item_ids()) {
    while (next != live.end() && next->id < id) ++next;
    const bool is_live = (next != live.end() && next->id == id) ||
                         (extra != nullptr && extra->id == id);
    if (!is_live) assigner.remove_item(id);
  }
  auto sync = [&](const svc::CommInfo& info,
                  const svc::CommStrategy& strategy) {
    const bool priority = priority_apps_.count(info.app.get()) > 0;
    if (!assigner.has_item(info.id)) {
      AssignItem item;
      item.comm = info.id;
      item.app = info.app;
      item.gpus_by_rank = &info.gpus;
      item.strategy = &strategy;
      item.high_priority = priority;
      assigner.add_item(item);
      return;
    }
    // A flow-shape change (an algorithm swap's new edge list) re-registers
    // the item; anything else leaves the warm copy as it is.
    assigner.update_strategy(info.id, strategy);
    assigner.set_high_priority(info.id, priority);
  };
  for (const svc::CommInfo& info : live) {
    // The swap override wins: the fabric reports the pre-barrier strategy.
    const bool overridden = extra != nullptr && info.id == extra->id;
    sync(info, overridden ? *extra_strategy : fabric_->strategy_of(info.id));
  }
  if (extra != nullptr && !assigner.has_item(extra->id)) {
    sync(*extra, *extra_strategy);
  }
}

int Controller::reassign(const svc::CommInfo* extra,
                         const svc::CommStrategy* extra_strategy,
                         AppId must_move) {
  const std::vector<svc::CommInfo> live = fabric_->list_communicators();
  compute_routes(live, extra, extra_strategy);
  int reconfigured = 0;
  for (const svc::CommInfo& info : live) {
    const RouteMap& routes = assigner_->routes_of(info.id);
    // The swapped communicator always reconfigures (its schedule changed
    // even when its routes did not); the stalled app too, since the
    // barrier's epoch bump re-rolls its ECMP-placed connections.
    const bool swapped = extra != nullptr && info.id == extra->id;
    const svc::CommStrategy& current =
        swapped ? *extra_strategy : fabric_->strategy_of(info.id);
    if (!swapped && current.routes == routes &&
        !(must_move.valid() && info.app == must_move)) {
      continue;
    }
    svc::CommStrategy s = current;
    s.routes = routes;
    fabric_->reconfigure(info.id, std::move(s));
    ++reconfigured;
  }
  return reconfigured;
}

svc::CommStrategy Controller::provide(const svc::CommInfo& info) {
  svc::CommStrategy strategy = ring_strategy(info);
  if (flow_policy_ == FlowPolicy::kEcmp) return strategy;

  // Place the arrival and reconfigure existing communicators whose
  // placement moved.
  reassign(&info, &strategy, AppId{});
  strategy.routes = assigner_->routes_of(info.id);
  return strategy;
}

void Controller::rebalance() {
  if (flow_policy_ == FlowPolicy::kEcmp) return;
  reassign(nullptr, nullptr, AppId{});
}

coll::CostParams Controller::cost_params() const {
  coll::CostParams p;
  const svc::ServiceConfig& cfg = fabric_->config();
  // One schedule hop on the critical path: post the send, cross the fabric.
  // The kernel-launch term folds in the per-step pipeline bubble the proxy
  // adds between dependent chunks.
  p.alpha = cfg.comm_kernel_launch + cfg.transport_step_overhead +
            cfg.network_hop_latency;
  // Bottleneck seconds-per-byte: the NIC uplink rate of the cluster's first
  // GPU (the testbed and sim clusters are NIC-homogeneous).
  const cluster::Cluster& cl = fabric_->cluster();
  const NodeId nic = cl.nic_node_of_gpu(GpuId{0});
  Bandwidth rate = 0.0;
  for (LinkId l : cl.topology().out_links(nic)) {
    rate = std::max(rate, cl.topology().link(l).capacity);
  }
  if (rate > 0.0) p.beta = 1.0 / rate;
  return p;
}

bool Controller::swap_algorithm(CommId comm, coll::Algorithm algorithm,
                                std::size_t tree_pipeline_chunks) {
  const svc::CommInfo& info = fabric_->comm_info(comm);
  svc::CommStrategy strategy = fabric_->strategy_of(comm);
  const bool same_chunks = tree_pipeline_chunks == 0 ||
                           tree_pipeline_chunks == strategy.tree_pipeline_chunks;
  if (strategy.algorithm == algorithm && same_chunks) return false;
  strategy.algorithm = algorithm;
  if (tree_pipeline_chunks > 0) {
    strategy.tree_pipeline_chunks = tree_pipeline_chunks;
  }

  if (flow_policy_ == FlowPolicy::kEcmp) {
    fabric_->reconfigure(comm, std::move(strategy));
    return true;
  }

  // Re-place flows with the new algorithm's compiled edge list. `strategy`
  // rides as the override — the fabric reports the pre-swap strategy until
  // the barrier completes, so compute_routes must not read it back.
  reassign(&info, &strategy, AppId{});
  return true;
}

void Controller::enable_fault_recovery() {
  fabric_->set_stall_handler(
      [this](const svc::StallReport& report) { on_stall(report); });
}

void Controller::on_stall(const svc::StallReport& report) {
  // Cross-check the stalled path against the monitoring plane's link
  // sampler (the same per-link view telemetry_snapshot exports): act only on
  // links the sampler shows administratively down AND carrying nothing — a
  // down link with allocated throughput would mean the solver and the state
  // machine disagree, which is not a state to reconfigure on — AND not yet
  // handled. Congestion stalls and repeat escalations over a known-dead link
  // fall through here, which keeps recovery idempotent.
  std::vector<LinkId> fresh;
  for (LinkId l : report.path) {
    const svc::Fabric::LinkSample s = fabric_->sample_link(l);
    if (s.state == net::LinkState::kDown && s.throughput <= 0.0 &&
        failed_links_.count(l.get()) == 0) {
      fresh.push_back(l);
    }
  }
  if (fresh.empty()) return;

  const Time detected = fabric_->loop().now();
  for (LinkId l : fresh) failed_links_.insert(l.get());
  const int n = reconfigure_around_failures(report.app);
  const int track = controller_track(*fabric_);
  for (LinkId l : fresh) {
    recovery_log_.push_back(
        RecoveryRecord{detected, fabric_->loop().now(), l, n});
    if (track >= 0) {
      // The RecoveryRecord as a span: stall confirmation to reconfigure
      // commands issued (detection latency is visible as the span length).
      fabric_->telemetry().timeline().span(
          track, "policy", "recovery", detected, fabric_->loop().now(),
          {{"link", static_cast<std::int64_t>(l.get())},
           {"comms_reconfigured", static_cast<std::int64_t>(n)},
           {"trigger", "stall_report"}});
    }
  }
}

void Controller::mark_link_failed(LinkId link) {
  if (!failed_links_.insert(link.get()).second) return;
  const Time detected = fabric_->loop().now();
  const int n = reconfigure_around_failures(AppId{});
  recovery_log_.push_back(
      RecoveryRecord{detected, fabric_->loop().now(), link, n});
  const int track = controller_track(*fabric_);
  if (track >= 0) {
    fabric_->telemetry().timeline().span(
        track, "policy", "recovery", detected, fabric_->loop().now(),
        {{"link", static_cast<std::int64_t>(link.get())},
         {"comms_reconfigured", static_cast<std::int64_t>(n)},
         {"trigger", "operator"}});
  }
}

void Controller::clear_link_failed(LinkId link) {
  if (failed_links_.erase(link.get()) == 0) return;
  // Restored capacity: spread flows back over the full path set.
  reconfigure_around_failures(AppId{});
}

std::vector<LinkId> Controller::failed_links() const {
  std::vector<LinkId> out;
  out.reserve(failed_links_.size());
  for (std::uint32_t l : failed_links_) out.push_back(LinkId{l});
  std::sort(out.begin(), out.end());
  return out;
}

int Controller::reconfigure_around_failures(AppId must_move) {
  if (flow_policy_ != FlowPolicy::kEcmp) {
    return reassign(nullptr, nullptr, must_move);
  }
  // No explicit routes to steer: reconfigure the affected app's comms so
  // the epoch bump re-rolls every connection's ECMP placement.
  int reconfigured = 0;
  for (const svc::CommInfo& info : fabric_->list_communicators()) {
    if (!must_move.valid() || info.app != must_move) continue;
    fabric_->reconfigure(info.id, fabric_->strategy_of(info.id));
    ++reconfigured;
  }
  return reconfigured;
}

bool Controller::apply_time_schedule(AppId prio, const std::vector<AppId>& others,
                                     Time guard) {
  const CommPattern pattern = analyze_comm_pattern(fabric_->trace(prio));
  if (!pattern.valid()) return false;
  const svc::TrafficSchedule schedule = idle_window_schedule(pattern, guard);
  for (AppId app : others) fabric_->set_traffic_schedule(app, schedule);
  emit_ts_instant("ts_schedule", prio, others, schedule);
  return true;
}

bool Controller::apply_profiled_schedule(AppId prio,
                                         const std::vector<AppId>& others,
                                         Time period, Time t0, Time guard) {
  const svc::TrafficSchedule schedule =
      complement_of_busy(fabric_->trace(prio), period, t0, guard);
  if (schedule.allowed.empty()) return false;  // prio is never idle
  for (AppId app : others) fabric_->set_traffic_schedule(app, schedule);
  emit_ts_instant("ts_profiled_schedule", prio, others, schedule);
  return true;
}

void Controller::emit_ts_instant(const char* name, AppId prio,
                                 const std::vector<AppId>& others,
                                 const svc::TrafficSchedule& schedule) {
  const int track = controller_track(*fabric_);
  if (track < 0) return;
  fabric_->telemetry().timeline().instant(
      track, "policy", name, fabric_->loop().now(),
      {{"prio_app", static_cast<std::int64_t>(prio.get())},
       {"confined_apps", static_cast<std::int64_t>(others.size())},
       {"period_us", schedule.period * 1e6},
       {"windows", static_cast<std::int64_t>(schedule.allowed.size())}});
}

void Controller::clear_time_schedule(const std::vector<AppId>& apps) {
  for (AppId app : apps) fabric_->clear_traffic_schedule(app);
}

}  // namespace mccs::policy
