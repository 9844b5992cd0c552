// svc_small: the service datapath per collective. Eight tenants of eight
// ranks on a 64-GPU spine-leaf fabric run a closed loop of small
// collectives (AllReduce / AllGather / ReduceScatter at 1-64 KB) with real
// data, under locality rings and FFA routes. Flows are short and solves
// cheap; after setup there are no control events and every launch hits the
// plan cache, so host time is shim -> frontend -> proxy -> coll_plan ->
// transport per collective.
//
// 1-64 KB rather than 4-256 KB: with real data the host copies and reduces
// every byte of the simulated GPU memory, and at 256 KB those copies took
// two thirds of the run. The workload then measured the host's memory
// bandwidth, which the host's other tenants share: three memcpy streams on
// the other vCPUs cut its rate by 22-34%, against 0-15% at 1-64 KB.
//
// op = one tenant collective (all eight ranks completed). An episode builds
// the fabric, bootstraps the tenants and runs one warm-up cycle of every
// shape (setup), then times the next 600 collectives.

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mccs_bench/counters.h"
#include "mccs_bench/harness.h"
#include "mccs/fabric.h"
#include "policy/controller.h"

namespace bench {
namespace {

using namespace mccs;
using coll::CollectiveKind;

constexpr int kTenants = 8;
constexpr int kRanks = 8;
constexpr Bytes kMaxBytes = 64_KB;
/// Every 16th collective of a tenant carries fresh integer data and is
/// verified exactly.
constexpr std::uint64_t kCheckEvery = 16;
/// Collectives in one episode's work phase (about 0.2 s), all covered by
/// the virtual digest.
constexpr std::uint64_t kEpisodeOps = 600;

struct Shape {
  CollectiveKind kind;
  std::size_t count;  ///< elements per the NCCL count semantics (api.h)
};

struct Tenant {
  struct Rank {
    svc::Shim* shim = nullptr;
    gpu::Stream* stream = nullptr;
    gpu::DevicePtr send;
    gpu::DevicePtr recv;
  };
  std::uint32_t index = 0;
  AppId app;
  std::vector<GpuId> gpus;
  CommId comm;
  std::vector<Rank> ranks;
  std::vector<Shape> cycle;  ///< seeded order of the 12 shapes

  std::uint64_t issued = 0;    ///< collectives issued so far
  std::uint64_t limit = 0;     ///< stop issuing at this count
  int pending = 0;             ///< rank completions outstanding
  Time issued_at = 0.0;
  Time done_at = 0.0;
  bool verify = false;         ///< the in-flight op carries checked data
};

struct State {
  std::unique_ptr<svc::Fabric> fabric;
  std::unique_ptr<policy::Controller> controller;
  std::vector<Tenant> tenants;
  double prewarm_s = 0.0;

  Run* run = nullptr;
  // Timed-phase bookkeeping, wired by run_svc_small (null during setup).
  Digest* digest = nullptr;
  std::vector<double>* virt_us = nullptr;
};

cluster::Cluster make_cluster() {
  cluster::SpineLeafSpec s;
  s.num_spines = 4;
  s.num_leaves = 4;
  s.hosts_per_leaf = 2;
  s.gpus_per_host = 8;
  s.nics_per_host = 8;
  s.nic_link = gbps(200);
  s.fabric_link = gbps(200);
  return cluster::make_spine_leaf(s);
}

/// Pair the 16 half-hosts (4 GPUs each) into 8 tenants whose two halves sit
/// under different leaves: a seeded shuffle, redrawn until every pair
/// crosses leaves.
std::vector<std::vector<GpuId>> place_tenants(const cluster::Cluster& cl, Rng& rng) {
  struct Half {
    std::uint32_t host;
    int side;
  };
  std::vector<Half> halves;
  for (std::uint32_t h = 0; h < cl.host_count(); ++h) {
    halves.push_back({h, 0});
    halves.push_back({h, 1});
  }
  for (;;) {
    rng.shuffle(halves);
    bool crosses = true;
    for (std::size_t i = 0; i < halves.size(); i += 2) {
      crosses = crosses && cl.host(HostId{halves[i].host}).rack !=
                               cl.host(HostId{halves[i + 1].host}).rack;
    }
    if (crosses) break;
  }
  std::vector<std::vector<GpuId>> out;
  for (std::size_t i = 0; i < halves.size(); i += 2) {
    std::vector<GpuId> gpus;
    for (const Half& half : {halves[i], halves[i + 1]}) {
      const auto& host_gpus = cl.host(HostId{half.host}).gpus;
      for (int g = 0; g < 4; ++g) {
        gpus.push_back(host_gpus[static_cast<std::size_t>(half.side * 4 + g)]);
      }
    }
    out.push_back(std::move(gpus));
  }
  return out;
}

/// Integer-valued element j of rank r's send buffer for op `op`: small
/// enough that any 8-way float sum is exact.
float value(int rank, std::size_t j, std::uint64_t op) {
  return static_cast<float>((static_cast<std::uint64_t>(rank) * 131 + j * 7 + op) % 97 + 1);
}

/// Elements in rank r's send buffer for this shape.
std::size_t send_elems(const Shape& s) {
  return s.kind == CollectiveKind::kReduceScatter ? s.count * kRanks : s.count;
}
std::size_t recv_elems(const Shape& s) {
  return s.kind == CollectiveKind::kAllGather ? s.count * kRanks : s.count;
}

void fill(State& st, Tenant& t, const Shape& s, std::uint64_t op) {
  gpu::GpuRuntime& gpus = st.fabric->gpus();
  for (int r = 0; r < kRanks; ++r) {
    const Tenant::Rank& rk = t.ranks[static_cast<std::size_t>(r)];
    auto send = gpus.typed<float>(rk.send, send_elems(s));
    for (std::size_t j = 0; j < send.size(); ++j) send[j] = value(r, j, op);
    auto recv = gpus.typed<float>(rk.recv, recv_elems(s));
    std::fill(recv.begin(), recv.end(), std::numeric_limits<float>::quiet_NaN());
  }
}

bool verify(State& st, const Tenant& t, const Shape& s, std::uint64_t op) {
  gpu::GpuRuntime& gpus = st.fabric->gpus();
  for (int r = 0; r < kRanks; ++r) {
    auto recv = gpus.typed<float>(t.ranks[static_cast<std::size_t>(r)].recv,
                                  recv_elems(s));
    for (std::size_t j = 0; j < recv.size(); ++j) {
      float want = 0.0f;
      switch (s.kind) {
        case CollectiveKind::kAllReduce:
          for (int q = 0; q < kRanks; ++q) want += value(q, j, op);
          break;
        case CollectiveKind::kAllGather:
          want = value(static_cast<int>(j / s.count), j % s.count, op);
          break;
        default:  // ReduceScatter: rank r owns block r of every send buffer
          for (int q = 0; q < kRanks; ++q) {
            want += value(q, static_cast<std::size_t>(r) * s.count + j, op);
          }
          break;
      }
      if (recv[j] != want) return false;
    }
  }
  return true;
}

void issue(State& st, Tenant& t);

void on_rank_done(State& st, Tenant& t, std::uint64_t op, Time at) {
  if (t.pending <= 0 || op + 1 != t.issued) {
    st.run->fail("svc_small: collective completed more than once");
    return;
  }
  t.done_at = std::max(t.done_at, at);
  if (--t.pending > 0) return;

  if (t.verify) {
    Untimed untimed;
    if (!verify(st, t, t.cycle[op % t.cycle.size()], op)) {
      st.run->fail("svc_small: collective result differs from the exact sum");
    }
  }
  if (st.digest != nullptr) {
    st.run->add_ops();
    if (!st.digest->complete()) {
      st.digest->record((static_cast<std::uint64_t>(t.index) << 40) | op, t.done_at);
      st.virt_us->push_back((t.done_at - t.issued_at) * 1e6);
    }
  }
  if (t.issued < t.limit) issue(st, t);
}

void issue(State& st, Tenant& t) {
  const std::uint64_t op = t.issued++;
  const Shape& s = t.cycle[op % t.cycle.size()];
  t.verify = st.digest != nullptr && op % kCheckEvery == 0;
  if (t.verify) {
    Untimed untimed;
    fill(st, t, s, op);
  }
  if (st.digest != nullptr) st.run->add_attempted();
  t.pending = kRanks;
  t.issued_at = st.fabric->loop().now();
  t.done_at = 0.0;
  for (Tenant::Rank& rk : t.ranks) {
    auto cb = [&st, &t, op](Time at) { on_rank_done(st, t, op, at); };
    Span span(Layer::kShim);
    switch (s.kind) {
      case CollectiveKind::kAllReduce:
        rk.shim->all_reduce(t.comm, rk.send, rk.recv, s.count,
                            coll::DataType::kFloat32, coll::ReduceOp::kSum,
                            *rk.stream, cb);
        break;
      case CollectiveKind::kAllGather:
        rk.shim->all_gather(t.comm, rk.send, rk.recv, s.count,
                            coll::DataType::kFloat32, *rk.stream, cb);
        break;
      default:
        rk.shim->reduce_scatter(t.comm, rk.send, rk.recv, s.count,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *rk.stream, cb);
        break;
    }
  }
}

std::unique_ptr<State> build(Run& run, std::uint64_t seed) {
  auto st = std::make_unique<State>();
  st->run = &run;
  svc::Fabric::Options options;
  options.seed = seed;
  st->fabric = std::make_unique<svc::Fabric>(make_cluster(), options);
  svc::Fabric& fabric = *st->fabric;
  st->controller = std::make_unique<policy::Controller>(fabric);
  st->controller->set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
  st->controller->set_flow_policy(policy::Controller::FlowPolicy::kFfa);
  st->controller->attach();

  Rng rng(seed);
  const std::vector<std::vector<GpuId>> placement = place_tenants(fabric.cluster(), rng);

  // Every NIC pair a tenant's connections can use.
  const double t0 = work_clock().now();
  const net::Routing& routing = fabric.network().routing();
  for (const std::vector<GpuId>& gpus : placement) {
    for (GpuId a : gpus) {
      for (GpuId b : gpus) {
        const NodeId na = fabric.cluster().nic_node_of_gpu(a);
        const NodeId nb = fabric.cluster().nic_node_of_gpu(b);
        if (na != nb) routing.paths(na, nb);
      }
    }
  }
  st->prewarm_s = work_clock().now() - t0;

  std::vector<Shape> shapes;
  for (CollectiveKind kind : {CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
                              CollectiveKind::kReduceScatter}) {
    for (Bytes bytes : {1_KB, 4_KB, 16_KB, 64_KB}) {
      // `bytes` is the collective's total data size (the output buffer).
      const std::size_t elems = bytes / sizeof(float);
      shapes.push_back({kind, kind == CollectiveKind::kAllReduce ? elems : elems / kRanks});
    }
  }

  st->tenants.resize(kTenants);
  int ready = 0;
  for (int i = 0; i < kTenants; ++i) {
    Tenant& t = st->tenants[static_cast<std::size_t>(i)];
    t.index = static_cast<std::uint32_t>(i);
    t.app = AppId{static_cast<std::uint32_t>(i + 1)};
    t.gpus = placement[static_cast<std::size_t>(i)];
    t.cycle = shapes;
    rng.shuffle(t.cycle);
    const svc::UniqueId uid = fabric.new_unique_id();
    for (int r = 0; r < kRanks; ++r) {
      Tenant::Rank rk;
      rk.shim = &fabric.connect(t.app, t.gpus[static_cast<std::size_t>(r)]);
      rk.stream = &rk.shim->create_app_stream();
      rk.send = rk.shim->alloc(kMaxBytes);
      rk.recv = rk.shim->alloc(kMaxBytes);
      t.ranks.push_back(rk);
      rk.shim->comm_init_rank(uid, kRanks, r, [&t, &ready](CommId id) {
        t.comm = id;
        ++ready;
      });
    }
  }
  fabric.loop().run();
  MCCS_CHECK(ready == kTenants * kRanks, "svc_small: bootstrap incomplete");

  // One full cycle per tenant so every timed launch hits a warm plan cache.
  for (Tenant& t : st->tenants) {
    t.limit = t.cycle.size();
    issue(*st, t);
  }
  fabric.loop().run();
  return st;
}

}  // namespace

void run_svc_small(Run& run) {
  const std::uint64_t episode_ops = run.smoke() ? 50 : kEpisodeOps;
  while (run.next_episode()) {
    std::unique_ptr<State> st = run.build([&run] { return build(run, run.episode_seed()); });
    svc::Fabric& fabric = *st->fabric;
    sim::EventLoop& loop = fabric.loop();
    const cluster::Cluster& cl = fabric.cluster();
    const NodeId probe_src = cl.nic_node_of_gpu(GpuId{0});
    const NodeId probe_dst = cl.nic_node_of_gpu(GpuId{1});

    Digest digest(episode_ops);
    std::vector<double> virt_us;
    st->digest = &digest;
    st->virt_us = &virt_us;
    run.watch_network(&fabric.network());

    const FabricCounters before = FabricCounters::read(fabric, probe_src, probe_dst);
    run.begin_work();
    for (Tenant& t : st->tenants) {
      t.limit = std::numeric_limits<std::uint64_t>::max();
      issue(*st, t);
    }
    run.step_until_ops(loop, episode_ops);
    run.end_work();
    const FabricCounters after = FabricCounters::read(fabric, probe_src, probe_dst);

    // Let in-flight collectives finish; nothing new is issued.
    for (Tenant& t : st->tenants) t.limit = t.issued;
    loop.run();
    for (const Tenant& t : st->tenants) {
      if (t.pending != 0) run.fail("svc_small: collective never completed");
    }

    if (run.first_episode()) {
      report_fabric(run, before, after);
      run.metric("routing.prewarm_s", st->prewarm_s, "s");
      sort_samples(virt_us);
      run.metric("virt_coll_us_p50", percentile_sorted(virt_us, 50.0), "us");
      run.metric("virt_coll_us_p99", percentile_sorted(virt_us, 99.0), "us");
    }
    run.digest(digest);
  }
}

}  // namespace bench
