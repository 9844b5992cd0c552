#include "workload/chaos.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "cluster/admission.h"
#include "common/rng.h"
#include "netsim/routing.h"
#include "policy/flow_assign.h"
#include "policy/ring_config.h"
#include "workload/fault_plan.h"

namespace mccs::workload {
namespace {

/// One admitted tenant, as the control plane sees it.
struct LiveJob {
  std::vector<GpuId> gpus;
  svc::CommStrategy strategy;
  std::vector<policy::PendingFlow> flows;  ///< routed set, for goodput
  bool high_priority = false;
  Time admitted_at = 0.0;
};

/// Merged replay step: faults first at equal times (a restore and an arrival
/// at the same instant must see the restored fabric), then churn; within a
/// source the original (time-sorted) order is preserved.
struct Step {
  Time at = 0.0;
  int source = 0;  ///< 0: fault, 1: churn
  std::size_t idx = 0;
};

}  // namespace

std::vector<LinkId> fabric_links(const cluster::Cluster& cluster) {
  const net::Topology& topo = cluster.topology();
  std::vector<LinkId> out;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const net::Link& link = topo.link(LinkId{static_cast<std::uint32_t>(i)});
    if (topo.node(link.src).kind != net::NodeKind::kHost &&
        topo.node(link.dst).kind != net::NodeKind::kHost) {
      out.push_back(link.id);
    }
  }
  return out;
}

ChaosChurnResult run_chaos_churn(const ChaosChurnSpec& spec, std::uint64_t seed,
                                 telemetry::MetricsRegistry* metrics) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(spec.fabric);
  const net::Routing routing(cluster.topology());
  cluster::AdmissionQueue admission(cluster, cluster::Placement::kCompact);
  admission.set_max_retries(spec.max_admission_retries);
  Rng rng(seed ^ 0x5eedu);

  const std::vector<JobSpec> jobs = poisson_jobs(spec.churn, seed);
  const std::vector<ChurnEvent> churn = churn_events(jobs);

  FaultPlan::RandomOptions fo;
  fo.horizon = spec.churn.horizon;
  fo.targets = fabric_links(cluster);
  fo.episodes = spec.fault_episodes;
  fo.degrade_prob = spec.degrade_prob;
  fo.min_outage =
      spec.min_outage > 0.0 ? spec.min_outage : spec.churn.horizon / 50.0;
  fo.max_outage =
      spec.max_outage > 0.0 ? spec.max_outage : spec.churn.horizon / 4.0;
  fo.flap_bursts = spec.flap_bursts;
  fo.flaps_per_burst = spec.flaps_per_burst;
  fo.max_kills = spec.max_kills;
  fo.kill_prob = spec.kill_prob;
  fo.killable.reserve(jobs.size());
  for (const JobSpec& j : jobs) fo.killable.push_back(AppId{j.job.get()});
  const FaultPlan plan = FaultPlan::random(seed * 0x9e3779b97f4a7c15ull + 0xfa,
                                           fo);
  const std::vector<FaultEvent>& faults = plan.events();

  std::vector<Step> steps;
  steps.reserve(faults.size() + churn.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    steps.push_back(Step{faults[i].at, 0, i});
  }
  for (std::size_t i = 0; i < churn.size(); ++i) {
    steps.push_back(Step{churn[i].at, 1, i});
  }
  std::sort(steps.begin(), steps.end(), [](const Step& a, const Step& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.source != b.source) return a.source < b.source;
    return a.idx < b.idx;
  });

  policy::IncrementalAssigner assigner(cluster, routing);
  assigner.set_reserved_routes(spec.reserved_routes);
  if (spec.audit_period > 0) {
    assigner.set_audit({spec.audit_period, seed}, metrics);
  }

  ChaosChurnResult res;
  res.jobs = jobs.size();
  res.events = steps.size();

  std::unordered_map<std::uint32_t, LiveJob> live;
  std::unordered_set<std::uint32_t> killed_jobs;
  std::unordered_map<std::uint32_t, int> admitted_count;
  std::unordered_map<std::uint32_t, int> completed_count;
  std::vector<double> link_factor(cluster.topology().link_count(), 1.0);
  std::unordered_set<std::uint32_t> down_links;
  double closure_total = 0.0;
  bool poison_window = false;  ///< warm state known-stale, audit not yet hit
  const std::size_t poison_at = spec.poison ? steps.size() / 3 : steps.size();

  auto activate = [&](JobId job, std::vector<GpuId> gpus, Time now,
                      std::vector<std::uint32_t>& started) {
    const JobSpec& js = jobs[job.get()];
    LiveJob lj;
    lj.strategy = policy::locality_aware_strategy(gpus, cluster);
    lj.gpus = std::move(gpus);
    lj.high_priority = js.high_priority;
    lj.admitted_at = now;
    policy::AssignItem item;
    item.comm = CommId{job.get()};
    item.app = AppId{job.get()};
    item.gpus_by_rank = &lj.gpus;
    item.strategy = &lj.strategy;
    item.high_priority = lj.high_priority;
    lj.flows = policy::enumerate_flows(item, cluster);
    live.emplace(job.get(), std::move(lj));
    ++admitted_count[job.get()];
    started.push_back(job.get());
  };

  auto depart = [&](std::uint32_t id) {
    live.erase(id);
    ++completed_count[id];
    ++res.completed;
    assigner.remove_item(CommId{id});
  };

  // Per-tenant goodput factor under the current link state: the collective
  // moves at its slowest routed flow.
  auto tenant_factor = [&](std::uint32_t id, const LiveJob& lj) -> double {
    if (lj.flows.empty()) return 1.0;  // single-host tenant
    const policy::RouteMap& routes = assigner.routes_of(CommId{id});
    double factor = 1.0;
    for (const policy::PendingFlow& f : lj.flows) {
      auto rit = routes.find(f.route_key);
      if (rit == routes.end()) continue;  // not yet solved (same instant)
      double path_factor = 1.0;
      for (LinkId l : routing.paths(f.src, f.dst)[rit->second.get()]) {
        path_factor = std::min(path_factor, link_factor[l.get()]);
      }
      factor = std::min(factor, path_factor);
      if (factor <= 0.0) break;
    }
    return factor;
  };

  auto oracle_digest = [&]() -> std::uint64_t {
    std::vector<std::uint32_t> ids;
    ids.reserve(live.size());
    for (const auto& [id, lj] : live) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    std::vector<policy::AssignItem> items;
    items.reserve(ids.size());
    for (std::uint32_t id : ids) {
      const LiveJob& lj = live.at(id);
      policy::AssignItem item;
      item.comm = CommId{id};
      item.app = AppId{id};
      item.gpus_by_rank = &lj.gpus;
      item.strategy = &lj.strategy;
      item.high_priority = lj.high_priority;
      items.push_back(item);
    }
    policy::AssignOptions options;
    options.reserved_routes = spec.reserved_routes;
    if (spec.reconfig) options.failed_links = down_links;
    return policy::assignment_digest(
        policy::assign_flows(items, cluster, routing, options));
  };

  for (std::size_t si = 0; si < steps.size(); ++si) {
    const Step& step = steps[si];
    std::vector<std::uint32_t> started;

    if (step.source == 0) {
      const FaultEvent& ev = faults[step.idx];
      switch (ev.kind) {
        case FaultEvent::Kind::kLinkDown:
          link_factor[ev.link.get()] = 0.0;
          down_links.insert(ev.link.get());
          break;
        case FaultEvent::Kind::kLinkDegrade:
          link_factor[ev.link.get()] = ev.fraction;
          break;
        case FaultEvent::Kind::kLinkRestore:
          link_factor[ev.link.get()] = 1.0;
          down_links.erase(ev.link.get());
          break;
        case FaultEvent::Kind::kKillApp: {
          // Mid-run tenant kill. The victim may be live (forced departure),
          // queued (cancel), or long gone (no-op) — all must be safe.
          const std::uint32_t id = ev.app.get();
          killed_jobs.insert(id);
          auto it = live.find(id);
          if (it != live.end()) {
            ++res.killed;
            depart(id);
          }
          for (cluster::AdmissionQueue::Admission& adm :
               admission.finish(JobId{id}, rng)) {
            activate(adm.job, std::move(adm.gpus), ev.at, started);
          }
          break;
        }
      }
      if (ev.kind != FaultEvent::Kind::kKillApp && spec.reconfig) {
        assigner.set_failed_links(down_links);
      }
      if (!down_links.empty()) {
        admission.set_backpressure(true);
      } else if (admission.backpressure()) {
        // Storm cleared: admit the deferred backlog in FIFO order.
        admission.set_backpressure(false);
        for (cluster::AdmissionQueue::Admission& adm :
             admission.drain_deferred(rng)) {
          activate(adm.job, std::move(adm.gpus), step.at, started);
        }
      }
    } else {
      const ChurnEvent& ev = churn[step.idx];
      if (ev.arrival) {
        if (auto placed =
                admission.submit(ev.job, jobs[ev.job.get()].gpus, rng)) {
          activate(ev.job, std::move(*placed), ev.at, started);
        }
      } else {
        // Natural departure. For a killed tenant this is the duplicate the
        // queue absorbs idempotently.
        if (live.count(ev.job.get()) > 0) depart(ev.job.get());
        for (cluster::AdmissionQueue::Admission& adm :
             admission.finish(ev.job, rng)) {
          activate(adm.job, std::move(adm.gpus), ev.at, started);
        }
      }
    }
    res.queued_peak = std::max(res.queued_peak, admission.queue_depth());

    // Control-plane decision: fold the started tenants in and re-solve the
    // dirty closure (faults above already seeded their dirt).
    for (std::uint32_t id : started) {
      const LiveJob& lj = live.at(id);
      policy::AssignItem item;
      item.comm = CommId{id};
      item.app = AppId{id};
      item.gpus_by_rank = &lj.gpus;
      item.strategy = &lj.strategy;
      item.high_priority = lj.high_priority;
      assigner.add_item(item);
    }
    const policy::IncrementalSolveStats st = assigner.solve(step.at);
    if (st.solved_items > 0) {
      closure_total += static_cast<double>(st.solved_items);
      ++res.solves;
    }

    if (spec.reconfig && !res.poisoned && si >= poison_at) {
      // Latch until a multi-path victim exists: at low load (or with purely
      // intra-rack tenants) the nominal injection point may have nothing to
      // corrupt, and a no-op poison would make the heal invariant vacuous.
      res.poisoned = assigner.debug_poison_state(seed);
      poison_window = res.poisoned;
    }

    // Identity invariant: warm assignment == from-scratch re-solve, after
    // every event (or on the configured stride). Divergence is legal only
    // inside a poison window, and the window must close (audit fallback or
    // the closure happening to re-solve the victim).
    const bool check_now =
        spec.reconfig &&
        (spec.oracle_every_event ||
         (spec.oracle_stride > 0 && si % spec.oracle_stride == 0));
    if (check_now) {
      const bool same =
          policy::assignment_digest(assigner.assignments()) == oracle_digest();
      if (!same) {
        ++res.divergent_events;
        if (!poison_window) res.identity = false;
      } else {
        poison_window = false;  // healed
      }
    }

    // Goodput integration over [this event, next event).
    if (si + 1 < steps.size()) {
      const double dt = steps[si + 1].at - step.at;
      if (dt > 0.0 && !live.empty()) {
        for (const auto& [id, lj] : live) {
          const double gpus = static_cast<double>(lj.gpus.size());
          res.fault_free_gpu_time += gpus * dt;
          res.faulted_gpu_time += gpus * dt * tenant_factor(id, lj);
        }
      }
    }
  }

  // Quiesce: the trace has drained every tenant; release any remaining
  // backpressure and let stragglers (deferred arrivals whose storm never
  // cleared before their departure passed — the queue cancelled those) out.
  admission.set_backpressure(false);
  for (cluster::AdmissionQueue::Admission& adm : admission.drain_deferred(rng)) {
    // A job admitted only now was already cancelled-or-departed upstream;
    // grant and immediately release so accounting stays exactly-once.
    ++admitted_count[adm.job.get()];
    ++completed_count[adm.job.get()];
    ++res.completed;
    admission.finish(adm.job, rng);
  }

  res.terminated = true;
  res.admitted = admission.admitted_total();
  res.rejected = admission.rejected_total();
  res.deferred = admission.deferred_total();
  res.duplicate_departures = admission.duplicate_finish_total();
  res.audits = assigner.audit_runs();
  res.audit_mismatches = assigner.audit_mismatches();
  res.fallbacks = assigner.fallbacks();
  res.mean_closure =
      res.solves > 0 ? closure_total / static_cast<double>(res.solves) : 0.0;
  res.healed = !poison_window;

  // Exactly-once: every admitted surviving tenant completed exactly once;
  // nobody was admitted twice.
  for (const JobSpec& j : jobs) {
    const int adm = admitted_count.count(j.job.get()) > 0
                        ? admitted_count.at(j.job.get())
                        : 0;
    const int fin = completed_count.count(j.job.get()) > 0
                        ? completed_count.at(j.job.get())
                        : 0;
    if (adm > 1 || fin > adm) res.exactly_once = false;
    if (killed_jobs.count(j.job.get()) > 0) continue;
    if (adm == 1 && fin != 1) res.exactly_once = false;
  }

  // Zero orphans after quiesce.
  res.residual_demand = assigner.total_link_demand();
  res.quiesced = admission.running_count() == 0 &&
                 admission.queue_depth() == 0 &&
                 admission.free_gpus() == cluster.gpu_count() &&
                 assigner.item_count() == 0 && live.empty() &&
                 std::abs(res.residual_demand) < 1e-3;

  if (spec.reconfig) {
    // Final identity at quiesce: both solvers agree on the empty cluster —
    // and, more usefully, the assigner's digest path ran clean to the end.
    const bool same =
        policy::assignment_digest(assigner.assignments()) == oracle_digest();
    if (!same && !poison_window) res.identity = false;
  }

  res.goodput_retention =
      res.fault_free_gpu_time > 0.0
          ? res.faulted_gpu_time / res.fault_free_gpu_time
          : 1.0;
  return res;
}

}  // namespace mccs::workload
