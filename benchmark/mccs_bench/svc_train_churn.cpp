// svc_train_churn: training tenants arriving and leaving on a 128-GPU
// spine-leaf fabric (4 spines, 4 leaves x 4 hosts x 8 GPUs). Tenants of 8
// or 16 GPUs — VGG-19 data parallel or GPT-2.7B tensor parallel with layers
// cut, the four kinds in equal shares — arrive as a Poisson process
// (stratified draws, see draws.h), are placed by the AdmissionQueue at
// random (never sharing a GPU), and join through the attached controller,
// which reconfigures neighbours whose routes moved through the Fig.-4
// barrier. On exit the benchmark calls destroy_communicator, then
// Controller::rebalance. Timing-only data. Multi-MB collectives from tenants
// spread across racks couple through shared spine links, so the netsim
// solve dominates, and arrivals and exits invalidate running tenants' plans
// beside their launches.
//
// op = one completed collective, counted from Fabric::trace_all(). An
// episode builds the fabric (setup), then times four tenants, one of each
// kind, from the first arrival until the last exits and the loop is empty.
// A fixed set of whole tenant lifetimes rather than a window of virtual
// time: the collectives a 0.4 s window holds, and their cost, varied 12x
// between seeds. Where random placement puts the tenants, and so how much
// their flows couple, still moves an episode's cost by up to 1.7x, and did
// as much with 16 tenants per episode as with four, so a run takes 16 short
// variants rather than fewer long ones.

#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/admission.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mccs_bench/counters.h"
#include "mccs_bench/draws.h"
#include "mccs_bench/harness.h"
#include "mccs/fabric.h"
#include "policy/controller.h"
#include "workload/models.h"
#include "workload/traffic_gen.h"

namespace bench {
namespace {

using namespace mccs;

constexpr Time kMeanInterarrival = 0.1;  ///< virtual seconds
/// Tenants one episode runs from arrival to exit: one of each kind.
constexpr int kEpisodeTenants = 4;
constexpr std::size_t kVariants = 16;

/// What a job trains: the model and the GPUs it asks for.
struct JobKind {
  bool vgg = true;  ///< VGG-19 data parallel; else GPT-2.7B tensor parallel
  int gpus = 8;
};

struct Tenant {
  JobId job;
  std::vector<GpuId> gpus;
  std::unique_ptr<workload::TrainingJob> training;
  int destroyed = 0;
};

struct State {
  std::unique_ptr<svc::Fabric> fabric;
  std::unique_ptr<policy::Controller> controller;
  std::unique_ptr<cluster::AdmissionQueue> admission;
  std::unique_ptr<Rng> rng;  ///< placement draws
  std::unique_ptr<Rng> trace_rng;
  std::unique_ptr<Deck<JobKind>> kinds;  ///< every model x size, in equal shares
  std::unique_ptr<StratifiedExponential> gaps;
  std::vector<JobKind> jobs;  ///< by job id
  std::unordered_map<std::uint32_t, Tenant> tenants;  ///< started, by job id
  double prewarm_s = 0.0;

  Run* run = nullptr;
  int arrivals_left = 0;
  std::vector<double> jct_s;  ///< every finished tenant
  /// Plan-cache counters of communicators destroyed during the work phase
  /// (the registry drops a communicator's series when it goes away).
  FabricCounters retired;
  /// Virtual intervals during which controller reconfiguration commands may
  /// be on their way to a proxy: after every rebalance, and around every new
  /// communicator's bootstrap completion.
  std::vector<std::pair<Time, Time>> control_busy;
};

cluster::Cluster make_cluster(bool smoke) {
  cluster::SpineLeafSpec s;
  s.num_spines = 4;
  s.num_leaves = smoke ? 2 : 4;
  s.hosts_per_leaf = smoke ? 2 : 4;
  s.gpus_per_host = 8;
  s.nics_per_host = 8;
  s.nic_link = gbps(200);
  s.fabric_link = gbps(200);
  return cluster::make_spine_leaf(s);
}

workload::TrainingModelSpec model_for(const JobKind& kind) {
  if (kind.vgg) return workload::vgg19_data_parallel();
  workload::TrainingModelSpec m = workload::gpt27b_tensor_parallel();
  m.layers = 4;  // a slice of the network per iteration keeps tenants short
  return m;
}

void start_tenant(State& st, JobId job, std::vector<GpuId> gpus);

void release(State& st, JobId job) {
  std::vector<cluster::AdmissionQueue::Admission> admitted;
  {
    Span span(Layer::kClusterAdmission);
    admitted = st.admission->finish(job, *st.rng);
  }
  for (cluster::AdmissionQueue::Admission& adm : admitted) {
    start_tenant(st, adm.job, std::move(adm.gpus));
  }
}

/// Destroying a communicator while a reconfiguration of it is in flight
/// trips the proxies' unknown-communicator check (a barrier message lands
/// after the teardown), so a finished tenant retires only once every rank is
/// idle and no controller command can still be on its way to it.
bool quiet(State& st, const Tenant& t) {
  svc::Fabric& fabric = *st.fabric;
  const Time now = fabric.loop().now();
  std::erase_if(st.control_busy, [now](const auto& b) { return b.second < now; });
  for (const auto& busy : st.control_busy) {
    if (busy.first <= now) return false;
  }
  for (GpuId g : t.gpus) {
    if (fabric.proxy_for(g).reconfig_in_progress(t.training->comm())) return false;
  }
  return true;
}

void retire(State& st, Tenant& t) {
  svc::Fabric& fabric = *st.fabric;
  if (!quiet(st, t)) {
    State* s = &st;
    Tenant* tp = &t;
    fabric.loop().schedule_after(micros(100), [s, tp] { retire(*s, *tp); });
    return;
  }
  const CommId comm = t.training->comm();
  if (st.run->timing()) {
    for (GpuId g : t.gpus) {
      const svc::CollPlanCache::Stats s = fabric.proxy_for(g).plan_cache_stats(comm);
      st.retired.plan_hits += s.hits;
      st.retired.plan_misses += s.misses;
      st.retired.plan_invalidations += s.invalidations;
    }
  }
  {
    Span span(Layer::kFabricCommDestroy);
    fabric.destroy_communicator(comm);
  }
  ++t.destroyed;
  {
    Span span(Layer::kPolicyRebalance);
    st.controller->rebalance();
  }
  const Time now = fabric.loop().now();
  st.control_busy.emplace_back(now, now + fabric.config().control_hop_latency + micros(5));
  release(st, t.job);
}

void on_tenant_done(State& st, Tenant& t, Time at) {
  st.jct_s.push_back(at - t.training->start_time());
  retire(st, t);
}

void start_tenant(State& st, JobId job, std::vector<GpuId> gpus) {
  Tenant& t = st.tenants[job.get()];
  t.job = job;
  t.gpus = std::move(gpus);
  const JobKind& kind = st.jobs[job.get()];
  workload::TrainingJob::Options options;
  options.iterations = kind.vgg ? 4 : 2;  // ~0.6 virtual seconds either way
  t.training = std::make_unique<workload::TrainingJob>(
      *st.fabric, AppId{job.get() + 1}, t.gpus, model_for(kind), options);
  // The ranks join one shim hop after start(); the controller's commands go
  // out when the bootstrap completes and land one control hop later.
  const svc::ServiceConfig& cfg = st.fabric->config();
  const Time ready = st.fabric->loop().now() + cfg.bootstrap_latency;
  st.control_busy.emplace_back(
      ready, ready + cfg.shim_to_service_latency + cfg.control_hop_latency + micros(5));
  State* s = &st;
  Tenant* tp = &t;
  Span span(Layer::kShim);
  t.training->start([s, tp](Time at) { on_tenant_done(*s, *tp, at); });
}

/// A new job of the next kind the deck deals.
JobId new_job(State& st) {
  st.jobs.push_back(st.kinds->next());
  return JobId{static_cast<std::uint32_t>(st.jobs.size() - 1)};
}

void arrive(State& st) {
  const JobId job = new_job(st);
  std::optional<std::vector<GpuId>> placed;
  {
    Span span(Layer::kClusterAdmission);
    placed = st.admission->submit(job, st.jobs[job.get()].gpus, *st.rng);
  }
  if (tracer().enabled()) {
    st.run->observe_peak(Run::Peak::kQueueDepth,
                         static_cast<double>(st.admission->queue_depth()));
  }
  if (placed) start_tenant(st, job, std::move(*placed));
  if (--st.arrivals_left > 0) {
    State* s = &st;
    st.fabric->loop().schedule_after(st.gaps->next(), [s] { arrive(*s); });
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
  st->fabric = std::make_unique<svc::Fabric>(make_cluster(smoke), options);
  svc::Fabric& fabric = *st->fabric;
  st->controller = std::make_unique<policy::Controller>(fabric);
  st->controller->set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
  st->controller->set_flow_policy(policy::Controller::FlowPolicy::kFfa);
  st->controller->attach();
  st->admission = std::make_unique<cluster::AdmissionQueue>(fabric.cluster(),
                                                            cluster::Placement::kRandom);
  st->rng = std::make_unique<Rng>(seed ^ 0x5eedu);
  st->trace_rng = std::make_unique<Rng>(seed);
  st->kinds = std::make_unique<Deck<JobKind>>(
      std::vector<JobKind>{{true, 8}, {true, 16}, {false, 8}, {false, 16}},
      *st->trace_rng);
  st->gaps = std::make_unique<StratifiedExponential>(kMeanInterarrival, *st->trace_rng);

  const double t0 = work_clock().now();
  const cluster::Cluster& cl = fabric.cluster();
  const net::Routing& routing = fabric.network().routing();
  for (GpuId a : cl.all_gpus()) {
    for (GpuId b : cl.all_gpus()) {
      if (cl.nic_node_of_gpu(a) != cl.nic_node_of_gpu(b)) {
        routing.paths(cl.nic_node_of_gpu(a), cl.nic_node_of_gpu(b));
      }
    }
  }
  st->prewarm_s = work_clock().now() - t0;
  return st;
}

}  // namespace

void run_svc_train_churn(Run& run) {
  run.set_variants(kVariants);
  while (run.next_episode()) {
    std::unique_ptr<State> st = run.build([&run] { return build(run, run.episode_seed()); });
    svc::Fabric& fabric = *st->fabric;
    sim::EventLoop& loop = fabric.loop();
    const cluster::Cluster& cl = fabric.cluster();
    const NodeId probe_src = cl.nic_node_of_gpu(GpuId{0});
    const NodeId probe_dst = cl.nic_node_of_gpu(GpuId{1});
    run.watch_network(&fabric.network());

    const FabricCounters before = FabricCounters::read(fabric, probe_src, probe_dst);
    st->arrivals_left = kEpisodeTenants;
    State* s = st.get();
    loop.schedule_after(st->gaps->next(), [s] { arrive(*s); });
    run.begin_work();
    run.step_until_ops(loop, std::numeric_limits<std::uint64_t>::max());  // until empty
    run.end_work();

    for (const auto& [id, t] : st->tenants) {
      if (!t.training->finished()) run.fail("svc_train_churn: tenant did not finish");
      if (t.destroyed != 1) run.fail("svc_train_churn: tenant not destroyed exactly once");
    }
    if (st->tenants.size() != static_cast<std::size_t>(kEpisodeTenants) ||
        st->admission->running_count() != 0 || st->admission->queue_depth() != 0) {
      run.fail("svc_train_churn: a tenant never ran, or the admission queue is not empty");
    }

    // Ops are the episode's collectives; the digest and the virtual
    // latencies cover all of them.
    Digest digest(std::numeric_limits<std::uint64_t>::max());
    std::vector<double> coll_us;
    std::uint64_t ops = 0;
    for (const svc::TraceRecord& r : fabric.trace_all()) {
      if (r.rank != 0) continue;
      ++ops;
      digest.record(r.comm.get(), r.completed);
      coll_us.push_back((r.completed - r.issued) * 1e6);
    }
    run.set_ops(ops);
    run.add_attempted(ops);
    run.digest(digest);

    if (run.first_episode()) {
      FabricCounters after = FabricCounters::read(fabric, probe_src, probe_dst);
      after.plan_hits += st->retired.plan_hits;
      after.plan_misses += st->retired.plan_misses;
      after.plan_invalidations += st->retired.plan_invalidations;
      report_fabric(run, before, after);
      run.metric("routing.prewarm_s", st->prewarm_s, "s");
      sort_samples(coll_us);
      run.metric("virt_coll_us_p50", percentile_sorted(coll_us, 50.0), "us");
      run.metric("virt_coll_us_p99", percentile_sorted(coll_us, 99.0), "us");
      run.metric("virt_jct_s_mean", mean(st->jct_s), "s");
      run.metric("virt_episode_s", loop.now(), "s");
    }
  }
}

}  // namespace bench
