// ctl_churn_1k: the production control plane at 1024 GPUs. A seeded
// Poisson tenant trace on cluster_day's clos-1k fabric (16 spines, 8 leaves
// x 16 hosts; mean inter-arrival 18 s, mean lifetime 900 s, 8/16/32-GPU jobs
// in cluster_day's 4:4:2 mix), merged with seeded leaf-spine link outages,
// is replayed closed-loop: each event is handled until the event loop is
// empty before the next one starts, so the replay is never late. The trace
// starts in steady state — the expected live population (mean lifetime /
// mean inter-arrival) is admitted during setup with memoryless residual
// lifetimes — so every timed event sees the same load.
//
// clos-1k rather than cluster_day's clos-4k: at 4096 GPUs an event costs
// 3-5 ms over a working set of 75-180 MB, and on a shared 4-vCPU virtual
// machine the spread (IQR / median over ten seeds) of its event rate and
// median decision latency was 15-40%, at or above any usable bound. At 1024
// GPUs an event costs about 1 ms.
//
//   arrival — AdmissionQueue compact placement, then comm_init_rank on every
//             rank; the attached controller picks the ring and FFA routes
//             and reconfigures neighbours whose routes moved;
//   exit    — destroy_communicator, then Controller::rebalance, then the
//             admission queue admits whatever now fits;
//   fault   — set_link_state plus mark_link_failed (down) or
//             clear_link_failed (restore); a degrade only rescales the link.
//
// No collectives run: the netsim and the datapath stay idle. The controller
// runs the one-shot FFA solver per event.
//
// op = one control event; its latency is the event's host decision time.
// An episode builds the fabric and admits the initial population (setup),
// then times the first 1000 events of the trace, with ten outage episodes
// among them. 1000 events so that each episode's 99th-percentile decision
// latency has ten events beyond it.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/admission.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "mccs_bench/draws.h"
#include "mccs_bench/harness.h"
#include "mccs/fabric.h"
#include "policy/controller.h"
#include "policy/flow_assign.h"
#include "workload/arrivals.h"
#include "workload/chaos.h"
#include "workload/fault_plan.h"

namespace bench {
namespace {

using namespace mccs;

constexpr Time kMeanInterarrival = 18.0;
constexpr Time kMeanDuration = 900.0;
/// Control events in one episode's work phase (about 1 s): about 9000 s of
/// the trace.
constexpr std::uint64_t kEpisodeOps = 1000;
/// Inputs per run: fewer and longer than the other workloads' episodes, so
/// each still gets about five repeats.
constexpr std::size_t kVariants = 4;
/// Virtual span of the generated trace: about 2200 events, far more than an
/// episode replays.
constexpr Time kHorizon = 20000.0;
/// Link outage episodes (each a down or degrade plus its restore) placed in
/// the part of the trace an episode replays, so every seed's episode handles
/// the same number of them.
constexpr int kFaultEpisodes = 10;
constexpr Time kFaultHorizon = 8000.0;
/// Installed routes are audited against the failed-link set after every
/// fault and every 16th event.
constexpr std::size_t kAuditEvery = 16;

struct Step {
  Time at = 0.0;
  bool fault = false;
  std::size_t idx = 0;  ///< into faults or churn
};

struct Live {
  CommId comm;
  std::vector<GpuId> gpus;
  int ready = 0;
};

struct State {
  std::unique_ptr<svc::Fabric> fabric;
  std::unique_ptr<policy::Controller> controller;
  std::unique_ptr<cluster::AdmissionQueue> admission;
  std::unique_ptr<Rng> rng;
  std::vector<workload::JobSpec> jobs;
  std::vector<workload::ChurnEvent> churn;
  std::vector<workload::FaultEvent> faults;
  std::vector<Step> steps;
  std::size_t next_step = 0;
  std::unordered_map<std::uint32_t, Live> live;  ///< by job id
  std::unordered_set<std::uint32_t> down;        ///< links marked failed
  Run* run = nullptr;
};

cluster::SpineLeafSpec fabric_spec(bool smoke) {
  cluster::SpineLeafSpec s;
  s.num_spines = smoke ? 4 : 16;
  s.num_leaves = 8;
  s.hosts_per_leaf = smoke ? 4 : 16;
  s.gpus_per_host = 8;
  s.nics_per_host = 8;
  s.nic_link = gbps(200);
  s.fabric_link = gbps(200);
  return s;
}

/// Seeded trace: the steady-state population at t=0 (residual lifetimes are
/// exponential too — the lifetime law is memoryless), then Poisson arrivals.
/// Sizes, gaps and lifetimes are stratified draws (draws.h), so every seed
/// offers the same load.
void make_trace(State& st, std::uint64_t seed, bool smoke) {
  Rng rng(seed);
  Deck<int> sizes(smoke ? std::vector<int>{8, 16}
                        : std::vector<int>{8, 8, 16, 16, 32},
                  rng);
  StratifiedExponential gap(kMeanInterarrival, rng);
  StratifiedExponential lifetime(kMeanDuration, rng);
  const int initial = static_cast<int>(kMeanDuration / kMeanInterarrival) / (smoke ? 12 : 1);
  auto add = [&](Time arrive) {
    workload::JobSpec j;
    j.job = JobId{static_cast<std::uint32_t>(st.jobs.size())};
    j.arrive = arrive;
    j.depart = arrive + lifetime.next();
    j.gpus = sizes.next();
    st.jobs.push_back(j);
  };
  for (int i = 0; i < initial; ++i) add(0.0);
  for (Time t = gap.next(); t < kHorizon; t += gap.next()) add(t);
  st.churn = workload::churn_events(st.jobs);

  workload::FaultPlan::RandomOptions fo;
  fo.horizon = kFaultHorizon;
  fo.targets = workload::fabric_links(st.fabric->cluster());
  fo.episodes = kFaultEpisodes;
  fo.degrade_prob = 0.3;
  fo.min_outage = 300.0;
  fo.max_outage = 1200.0;
  st.faults = workload::FaultPlan::random(seed * 0x9e3779b97f4a7c15ull + 0xfa, fo).events();

  for (std::size_t i = 0; i < st.faults.size(); ++i) {
    st.steps.push_back(Step{st.faults[i].at, true, i});
  }
  for (std::size_t i = 0; i < st.churn.size(); ++i) {
    st.steps.push_back(Step{st.churn[i].at, false, i});
  }
  // Faults first at equal times (a restore and an arrival at one instant see
  // the restored fabric), then each source in its own order.
  std::sort(st.steps.begin(), st.steps.end(), [](const Step& a, const Step& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.fault != b.fault) return a.fault;
    return a.idx < b.idx;
  });
}

/// comm_init_rank on every rank of an admitted job, then run the loop until
/// the communicator is installed everywhere (the controller's ring and route
/// choice and any neighbour reconfiguration run inside).
void create_comm(State& st, JobId job, std::vector<GpuId> gpus) {
  svc::Fabric& fabric = *st.fabric;
  Live& lj = st.live[job.get()];
  lj.gpus = std::move(gpus);
  const AppId app{job.get() + 1};
  const int n = static_cast<int>(lj.gpus.size());
  Span span(Layer::kFabricCommCreate);
  const svc::UniqueId uid = fabric.new_unique_id();
  for (int r = 0; r < n; ++r) {
    svc::Shim& shim = fabric.connect(app, lj.gpus[static_cast<std::size_t>(r)]);
    Span call(Layer::kShim);
    shim.comm_init_rank(uid, n, r, [&lj](CommId id) {
      lj.comm = id;
      ++lj.ready;
    });
  }
  st.run->drain(fabric.loop());
  if (lj.ready != n) st.run->fail("ctl_churn: admitted communicator never became ready");
}

void handle(State& st, const Step& step) {
  svc::Fabric& fabric = *st.fabric;
  // The control plane's clock follows the trace between events.
  if (step.at > fabric.loop().now()) fabric.loop().run_until(step.at);
  if (step.fault) {
    const workload::FaultEvent& ev = st.faults[step.idx];
    net::LinkState state = net::LinkState::kUp;
    if (ev.kind == workload::FaultEvent::Kind::kLinkDown) state = net::LinkState::kDown;
    if (ev.kind == workload::FaultEvent::Kind::kLinkDegrade) {
      state = net::LinkState::kDegraded;
    }
    {
      Span span(Layer::kNetLinkState);
      fabric.network().set_link_state(ev.link, state, ev.fraction);
    }
    if (state == net::LinkState::kDown) {
      Span span(Layer::kPolicyLinkFault);
      st.controller->mark_link_failed(ev.link);
      st.down.insert(ev.link.get());
    } else if (state == net::LinkState::kUp && st.down.erase(ev.link.get()) > 0) {
      Span span(Layer::kPolicyLinkFault);
      st.controller->clear_link_failed(ev.link);
    }
  } else {
    const workload::ChurnEvent& ev = st.churn[step.idx];
    if (ev.arrival) {
      std::optional<std::vector<GpuId>> placed;
      {
        Span span(Layer::kClusterAdmission);
        placed = st.admission->submit(ev.job, st.jobs[ev.job.get()].gpus, *st.rng);
      }
      if (placed) create_comm(st, ev.job, std::move(*placed));
    } else {
      const auto it = st.live.find(ev.job.get());
      if (it != st.live.end()) {
        {
          Span span(Layer::kFabricCommDestroy);
          fabric.destroy_communicator(it->second.comm);
        }
        st.live.erase(it);
        Span span(Layer::kPolicyRebalance);
        st.controller->rebalance();
      }
      std::vector<cluster::AdmissionQueue::Admission> admitted;
      {
        Span span(Layer::kClusterAdmission);
        admitted = st.admission->finish(ev.job, *st.rng);
      }
      for (cluster::AdmissionQueue::Admission& adm : admitted) {
        create_comm(st, adm.job, std::move(adm.gpus));
      }
    }
    if (tracer().enabled()) {
      st.run->observe_peak(Run::Peak::kQueueDepth,
                           static_cast<double>(st.admission->queue_depth()));
    }
  }
  st.run->drain(fabric.loop());
}

/// No live communicator's installed routes may cross a link marked failed.
void audit_routes(State& st) {
  if (st.down.empty()) return;
  svc::Fabric& fabric = *st.fabric;
  const net::Routing& routing = fabric.network().routing();
  for (const auto& [job, lj] : st.live) {
    const svc::CommStrategy& strategy = fabric.strategy_of(lj.comm);
    policy::AssignItem item;
    item.comm = lj.comm;
    item.app = AppId{job + 1};
    item.gpus_by_rank = &lj.gpus;
    item.strategy = &strategy;
    for (const policy::PendingFlow& f : policy::enumerate_flows(item, fabric.cluster())) {
      const auto route = strategy.routes.find(f.route_key);
      if (route == strategy.routes.end()) continue;
      for (LinkId l : routing.by_route_id(f.src, f.dst, route->second)) {
        if (st.down.count(l.get()) > 0) {
          st.run->fail("ctl_churn: installed route crosses a failed link");
          return;
        }
      }
    }
  }
}

std::unique_ptr<State> build(Run& run, std::uint64_t seed) {
  auto st = std::make_unique<State>();
  st->run = &run;
  const bool smoke = run.smoke();
  svc::Fabric::Options options;
  options.seed = seed;
  options.config.move_data = false;
  options.gpu_config.materialize_memory = false;
  st->fabric = std::make_unique<svc::Fabric>(
      cluster::make_spine_leaf(fabric_spec(smoke)), options);
  st->controller = std::make_unique<policy::Controller>(*st->fabric);
  st->controller->set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
  st->controller->set_flow_policy(policy::Controller::FlowPolicy::kFfa);
  st->controller->attach();
  st->admission = std::make_unique<cluster::AdmissionQueue>(
      st->fabric->cluster(), cluster::Placement::kCompact);
  st->rng = std::make_unique<Rng>(seed ^ 0x5eedu);
  make_trace(*st, seed, smoke);

  // The steady-state population: every t=0 arrival, bootstrapped now.
  while (st->next_step < st->steps.size()) {
    const Step& step = st->steps[st->next_step];
    if (step.fault || step.at > 0.0 || !st->churn[step.idx].arrival) break;
    handle(*st, step);
    ++st->next_step;
  }
  return st;
}

}  // namespace

void run_ctl_churn(Run& run) {
  const std::uint64_t episode_ops = run.smoke() ? 20 : kEpisodeOps;
  run.set_steps_are_events(false);
  run.set_variants(kVariants);
  while (run.next_episode()) {
    std::unique_ptr<State> st = run.build([&run] { return build(run, run.episode_seed()); });
    Digest digest(episode_ops);
    svc::Fabric& fabric = *st->fabric;

    run.begin_work();
    while (run.ops() < episode_ops && st->next_step < st->steps.size()) {
      const Step& step = st->steps[st->next_step++];
      const double t0 = work_clock().now();
      handle(*st, step);
      run.sample_event(work_clock().now() - t0);
      run.add_attempted();
      run.add_ops();

      Untimed untimed;
      digest.record(st->next_step, fabric.loop().now());
      if (step.fault || run.ops() % kAuditEvery == 0) audit_routes(*st);
    }
    run.end_work();
    if (run.ops() < episode_ops) run.fail("ctl_churn: trace exhausted before the episode's work");

    audit_routes(*st);
    run.digest(digest);
  }
}

}  // namespace bench
