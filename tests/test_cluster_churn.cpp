// Seconds-scale churn smoke for the warm-started control plane, tier-1:
//
//   * one fabric driven through tenant churn — creates, a kill, link failure
//     + recovery, re-admission — whose installed routes must equal the
//     one-shot assign_flows oracle after every step (the live-fabric
//     complement of the assigner-level property test), plus a seeded fuzz
//     of the same comparison over 100 random event sequences that also
//     swap algorithms, destroy communicators (from the provider and from
//     every rank) and flip priorities;
//   * create/collective/teardown soaks asserting the telemetry registry and
//     each GPU's stream table stop growing, under destroy and under kill;
//   * FIFO admission-control ordering and the seeded Poisson churn trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/admission.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "netsim/network.h"
#include "policy/controller.h"
#include "workload/arrivals.h"
#include "workload/chaos.h"

namespace mccs {
namespace {

using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

cluster::SpineLeafSpec smoke_spec() {
  // 16 GPUs: 2 spines x 4 leaves x 2 hosts x 2 GPUs — four racks, so both
  // intra-rack tenants (candidate-disjoint components) and cross-rack ones
  // exist, and a spine link failure actually reroutes something.
  cluster::SpineLeafSpec spec;
  spec.num_spines = 2;
  spec.num_leaves = 4;
  spec.hosts_per_leaf = 2;
  spec.gpus_per_host = 2;
  spec.nics_per_host = 2;
  spec.nic_link = gbps(200);
  spec.fabric_link = gbps(200);
  return spec;
}

/// One fabric under the production controller: PFA with route 0 reserved
/// for the high-priority apps in `priority`.
struct ChurnWorld {
  Fabric fabric{cluster::make_spine_leaf(smoke_spec())};
  policy::Controller ctl{fabric};
  const std::unordered_set<std::uint32_t> reserved{0};
  std::unordered_set<std::uint32_t> priority;

  explicit ChurnWorld(std::unordered_set<std::uint32_t> high_priority = {})
      : priority(std::move(high_priority)) {
    ctl.set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
    ctl.set_flow_policy(policy::Controller::FlowPolicy::kPfa);
    ctl.set_reserved_routes(reserved);
    for (std::uint32_t app : priority) ctl.set_high_priority(AppId{app});
    ctl.attach();
  }

  void set_priority(AppId app, bool high) {
    if (high) {
      priority.insert(app.get());
      ctl.set_high_priority(app);
    } else {
      priority.erase(app.get());
      ctl.clear_high_priority(app);
    }
  }

  /// Every live communicator's installed routes must be the oracle's.
  void expect_routes_match_oracle(const char* step) {
    fabric.loop().run();
    const auto expected =
        test::oracle_routes(fabric, ctl.failed_links(), reserved, priority);
    for (const auto& info : fabric.list_communicators()) {
      const auto it = expected.find(info->id.get());
      EXPECT_EQ(fabric.strategy_of(info->id).routes,
                it == expected.end() ? policy::RouteMap{} : it->second)
          << step << ": comm " << info->id.get();
    }
  }
};

TEST(ClusterChurn, IncrementalControllerMatchesFullUnderChurn) {
  ChurnWorld w({2});

  // Arrivals: two intra-rack tenants (racks 0 and 1), one high-priority
  // cross-rack tenant (racks 2 and 3).
  create_comm(w.fabric, AppId{1}, {GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3}});
  w.expect_routes_match_oracle("first tenant");
  create_comm(w.fabric, AppId{2}, {GpuId{8}, GpuId{9}, GpuId{12}, GpuId{13}});
  w.expect_routes_match_oracle("high-priority cross-rack tenant");
  create_comm(w.fabric, AppId{3}, {GpuId{4}, GpuId{5}, GpuId{6}, GpuId{7}});
  w.expect_routes_match_oracle("third tenant");
  // The rack-local arrival shares no candidate link with the other two
  // tenants, so its decision re-solves its own item only; a silent fallback
  // to full re-solves would solve every live item.
  const policy::IncrementalSolveStats& arrival = w.ctl.last_solve_stats();
  EXPECT_EQ(arrival.live_items, 3u);
  EXPECT_LT(arrival.solved_items, arrival.live_items);

  // Link failure: take one fabric link down in the netsim and tell the
  // controller, as the stall->confirm path would.
  const auto link_count = w.fabric.cluster().topology().link_count();
  const LinkId victim{static_cast<std::uint32_t>(link_count - 1)};
  w.fabric.network().set_link_state(victim, net::LinkState::kDown);
  w.ctl.mark_link_failed(victim);
  w.expect_routes_match_oracle("link failed");

  // Recovery: link back up, exclusion lifted.
  w.fabric.network().set_link_state(victim, net::LinkState::kUp);
  w.ctl.clear_link_failed(victim);
  w.expect_routes_match_oracle("link recovered");

  // Departure: the priority tenant leaves; survivors rebalance.
  w.fabric.kill_app(AppId{2});
  w.ctl.rebalance();
  w.expect_routes_match_oracle("tenant killed");

  // Re-admission onto the freed GPUs (warm add after a removal).
  create_comm(w.fabric, AppId{4}, {GpuId{8}, GpuId{9}, GpuId{12}, GpuId{13}});
  w.expect_routes_match_oracle("re-admitted tenant");
}

/// One seeded sequence of control events against the production controller;
/// returns a description of the first step whose installed routes differ
/// from the oracle, or an empty string.
std::string churn_fuzz_seed(std::uint64_t seed, int events) {
  ChurnWorld w;
  Rng rng(seed);
  const std::vector<LinkId> links = workload::fabric_links(w.fabric.cluster());
  struct Tenant {
    CommId comm;
    AppId app;
    std::vector<GpuId> gpus;
  };
  std::vector<Tenant> live;
  std::vector<GpuId> free_gpus;
  for (std::uint32_t g = 0; g < w.fabric.cluster().gpu_count(); ++g) {
    free_gpus.push_back(GpuId{g});
  }
  std::vector<LinkId> down;
  std::uint32_t next_app = 1;

  auto release = [&](std::size_t i) {
    free_gpus.insert(free_gpus.end(), live[i].gpus.begin(), live[i].gpus.end());
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  };
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };

  for (int e = 0; e < events; ++e) {
    std::string what;
    switch (rng.below(8)) {
      case 0: {  // arrival on 2-8 random free GPUs
        if (free_gpus.size() < 2) continue;
        rng.shuffle(free_gpus);
        const std::size_t n =
            2 + pick(std::min<std::size_t>(free_gpus.size(), 8) - 1);
        Tenant t;
        t.app = AppId{next_app++};
        t.gpus.assign(free_gpus.end() - static_cast<std::ptrdiff_t>(n),
                      free_gpus.end());
        free_gpus.resize(free_gpus.size() - n);
        t.comm = create_comm(w.fabric, t.app, t.gpus);
        live.push_back(t);
        what = "arrival";
        break;
      }
      case 1: {  // orderly departure
        if (live.empty()) continue;
        const std::size_t i = pick(live.size());
        w.fabric.destroy_communicator(live[i].comm);
        release(i);
        w.ctl.rebalance();
        what = "destroy";
        break;
      }
      case 2: {  // tenant kill
        if (live.empty()) continue;
        const std::size_t i = pick(live.size());
        w.fabric.kill_app(live[i].app);
        release(i);
        w.ctl.rebalance();
        what = "kill";
        break;
      }
      case 3: {  // link down
        const LinkId l = links[pick(links.size())];
        if (std::find(down.begin(), down.end(), l) != down.end()) continue;
        w.fabric.network().set_link_state(l, net::LinkState::kDown);
        w.ctl.mark_link_failed(l);
        down.push_back(l);
        what = "link down";
        break;
      }
      case 4: {  // restore
        if (down.empty()) continue;
        const std::size_t i = pick(down.size());
        w.fabric.network().set_link_state(down[i], net::LinkState::kUp);
        w.ctl.clear_link_failed(down[i]);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
        what = "restore";
        break;
      }
      case 5: {  // algorithm swap
        if (live.empty()) continue;
        constexpr coll::Algorithm kAlgorithms[] = {
            coll::Algorithm::kRing, coll::Algorithm::kTree,
            coll::Algorithm::kDoubleBinaryTree};
        w.ctl.swap_algorithm(live[pick(live.size())].comm,
                             kAlgorithms[pick(3)]);
        what = "swap";
        break;
      }
      case 6: {  // priority flip
        if (live.empty()) continue;
        const AppId app = live[pick(live.size())].app;
        w.set_priority(app, w.priority.count(app.get()) == 0);
        w.ctl.rebalance();
        what = "priority flip";
        break;
      }
      case 7: {  // the tenant leaves: every rank calls comm_destroy
        if (live.empty()) continue;
        const std::size_t i = pick(live.size());
        for (GpuId g : live[i].gpus) {
          w.fabric.connect(live[i].app, g).comm_destroy(live[i].comm);
        }
        w.fabric.loop().run();
        release(i);
        w.ctl.rebalance();
        what = "tenant destroy";
        break;
      }
    }
    w.fabric.loop().run();
    if (test::installed_digest(w.fabric) !=
        test::oracle_digest(w.fabric, w.ctl.failed_links(), w.reserved,
                            w.priority)) {
      std::ostringstream os;
      os << "seed " << seed << ": event " << e << " (" << what
         << ") left installed routes that differ from the oracle";
      return os.str();
    }
  }
  return {};
}

TEST(ClusterChurn, ControllerChurnFuzzMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    EXPECT_EQ(churn_fuzz_seed(seed, 40), std::string{});
  }
}

TEST(ClusterChurn, TelemetryRegistryDoesNotGrowAcrossCommLifecycles) {
  Fabric fabric{cluster::make_testbed()};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const std::size_t count = 256;

  std::vector<std::size_t> sizes;
  for (int cycle = 0; cycle < 12; ++cycle) {
    const AppId app{static_cast<std::uint32_t>(cycle + 1)};
    const std::size_t before = fabric.telemetry().metrics().size();
    const CommId comm = create_comm(fabric, app, gpus);
    auto ranks = make_ranks(fabric, app, gpus);
    std::vector<gpu::DevicePtr> buf(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    }
    // One collective, so every rank's plan cache counts.
    int remaining = static_cast<int>(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
    ASSERT_TRUE(await(fabric, remaining));
    if (cycle > 0) {
      EXPECT_EQ(fabric.telemetry().metrics().size(), before)
          << "cycle " << cycle << ": a live communicator interned series";
    }
    fabric.kill_app(app);
    fabric.loop().run();
    sizes.push_back(fabric.telemetry().metrics().size());
  }

  // The first cycle may intern what a first collective needs once, but no
  // series is per communicator: the plan cache's are per GPU, interned when
  // the fabric is built. After the first cycle the size is flat.
  ASSERT_GE(sizes.size(), 4u);
  for (std::size_t i = 2; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[1])
        << "telemetry registry grew across comm lifecycles (cycle " << i
        << "): plan-cache counters leaked";
  }
}

TEST(ClusterChurn, CommStreamsDoNotLeakAcrossCommLifecycles) {
  // Each rank's communicator stream goes with its communicator, through an
  // orderly destroy and through a kill that lands while a collective runs.
  for (const bool kill : {false, true}) {
    SCOPED_TRACE(kill ? "kill" : "destroy");
    Fabric fabric{cluster::make_testbed()};
    const AppId app{1};
    const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
    const std::size_t count = 256;
    // One tenant process per GPU for the whole soak: its app streams and
    // buffers are created once, so only communicator streams could grow.
    auto ranks = make_ranks(fabric, app, gpus);
    std::vector<gpu::DevicePtr> buf(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    }
    int remaining = 0;
    const auto all_reduce = [&](CommId comm) {
      remaining = static_cast<int>(gpus.size());
      for (std::size_t r = 0; r < gpus.size(); ++r) {
        ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                                  coll::DataType::kFloat32,
                                  coll::ReduceOp::kSum, *ranks[r].stream,
                                  [&remaining](Time) { --remaining; });
      }
    };

    std::vector<std::vector<std::size_t>> streams;  // per cycle, per rank
    for (int cycle = 0; cycle < 12; ++cycle) {
      const CommId comm = create_comm(fabric, app, gpus);
      all_reduce(comm);
      ASSERT_TRUE(await(fabric, remaining))
          << "cycle " << cycle
          << ": the app streams still wait on an aborted collective";
      if (kill) {
        all_reduce(comm);
        ASSERT_TRUE(test::await_until(fabric, [&] {
          for (GpuId g : gpus) {
            if (fabric.proxy_for(g).active_count(comm) != 1) return false;
          }
          return true;
        }));
        fabric.kill_app(app);
      } else {
        fabric.destroy_communicator(comm);
      }
      fabric.loop().run();
      EXPECT_EQ(remaining, kill ? static_cast<int>(gpus.size()) : 0)
          << "an aborted collective reported completion";
      std::vector<std::size_t> per_rank;
      for (GpuId g : gpus) {
        per_rank.push_back(fabric.gpus().gpu(g).stream_count());
      }
      streams.push_back(per_rank);
    }

    for (std::size_t i = 1; i < streams.size(); ++i) {
      EXPECT_EQ(streams[i], streams[0])
          << "GPU stream tables grew across comm lifecycles (cycle " << i
          << ")";
    }
  }
}

TEST(ClusterChurn, AdmissionQueueIsStrictFifo) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(smoke_spec());
  cluster::AdmissionQueue q(cluster, cluster::Placement::kCompact);
  Rng rng(11);

  // 16 GPUs. Job 0 takes 12; job 1 (8) blocks; job 2 (2) would fit the
  // remaining 4 but must NOT bypass job 1.
  ASSERT_TRUE(q.submit(JobId{0}, 12, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{1}, 8, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{2}, 2, rng).has_value());
  EXPECT_EQ(q.queue_depth(), 2u);
  EXPECT_EQ(q.free_gpus(), 4u);

  // Job 0 leaves: the queue drains head-first — job 1 then job 2.
  const auto admitted = q.finish(JobId{0}, rng);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].job.get(), 1u);
  EXPECT_EQ(admitted[0].gpus.size(), 8u);
  EXPECT_EQ(admitted[1].job.get(), 2u);
  EXPECT_EQ(admitted[1].gpus.size(), 2u);
  EXPECT_EQ(q.queue_depth(), 0u);
  EXPECT_EQ(q.admitted_total(), 3u);
}

TEST(ClusterChurn, AdmissionQueueDepartureOfQueuedJobUnblocks) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(smoke_spec());
  cluster::AdmissionQueue q(cluster, cluster::Placement::kCompact);
  Rng rng(12);

  ASSERT_TRUE(q.submit(JobId{0}, 12, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{1}, 8, rng).has_value());   // blocked head
  EXPECT_FALSE(q.submit(JobId{2}, 4, rng).has_value());   // behind it
  // The blocked head is cancelled while still queued: job 2 fits the free 4
  // GPUs and must be admitted by the same departure.
  const auto admitted = q.finish(JobId{1}, rng);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].job.get(), 2u);
  EXPECT_EQ(q.queue_depth(), 0u);
}

TEST(ClusterChurn, AdmissionQueueCancelOfQueuedMidListDoesNotDrain) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(smoke_spec());
  cluster::AdmissionQueue q(cluster, cluster::Placement::kCompact);
  Rng rng(21);

  // 16 GPUs. Job 0 takes 12; 1 and 2 queue behind it. Cancelling job 2 —
  // queued but NOT at the head — must dequeue it without admitting anyone
  // (the head is still blocked, and FIFO forbids skipping it).
  ASSERT_TRUE(q.submit(JobId{0}, 12, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{1}, 8, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{2}, 2, rng).has_value());
  EXPECT_TRUE(q.is_waiting(JobId{2}));
  EXPECT_TRUE(q.finish(JobId{2}, rng).empty());
  EXPECT_FALSE(q.is_waiting(JobId{2}));
  EXPECT_EQ(q.queue_depth(), 1u);
  EXPECT_EQ(q.duplicate_finish_total(), 0u);
}

TEST(ClusterChurn, AdmissionQueueDuplicateDepartureIsIdempotent) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(smoke_spec());
  cluster::AdmissionQueue q(cluster, cluster::Placement::kCompact);
  Rng rng(22);

  ASSERT_TRUE(q.submit(JobId{0}, 4, rng).has_value());
  EXPECT_TRUE(q.finish(JobId{0}, rng).empty());
  EXPECT_EQ(q.free_gpus(), 16u);
  // Second departure (chaos kill followed by the trace's natural one): a
  // counted no-op, not an abort, and GPUs are not double-released.
  EXPECT_TRUE(q.finish(JobId{0}, rng).empty());
  EXPECT_EQ(q.duplicate_finish_total(), 1u);
  EXPECT_EQ(q.free_gpus(), 16u);
  // Departure of a job never submitted is the same no-op.
  EXPECT_TRUE(q.finish(JobId{99}, rng).empty());
  EXPECT_EQ(q.duplicate_finish_total(), 2u);
}

TEST(ClusterChurn, AdmissionQueueRejectsMalformedRequests) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(smoke_spec());
  cluster::AdmissionQueue q(cluster, cluster::Placement::kCompact);
  Rng rng(23);

  // Zero, negative, or cluster-exceeding GPU counts can never be placed;
  // queueing them would wedge the FIFO head forever, so they are rejected
  // at submit — counted and reported, never queued.
  EXPECT_FALSE(q.submit(JobId{0}, 0, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{1}, -3, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{2}, 17, rng).has_value());
  EXPECT_EQ(q.queue_depth(), 0u);
  EXPECT_EQ(q.rejected_total(), 3u);
  const std::vector<JobId> rejected = q.take_rejected();
  ASSERT_EQ(rejected.size(), 3u);
  EXPECT_EQ(rejected[0].get(), 0u);
  EXPECT_EQ(rejected[1].get(), 1u);
  EXPECT_EQ(rejected[2].get(), 2u);
  EXPECT_TRUE(q.take_rejected().empty());
  // A well-formed submit still works afterwards.
  EXPECT_TRUE(q.submit(JobId{3}, 16, rng).has_value());
}

TEST(ClusterChurn, AdmissionQueueDeferredRetryOrderingUnderBackpressure) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(smoke_spec());
  cluster::AdmissionQueue q(cluster, cluster::Placement::kCompact);
  Rng rng(24);

  // 16 GPUs. Occupy 12, then raise backpressure (recovery storm): every
  // submit defers, departures release capacity but admit nobody, and
  // drain_deferred is a no-op until the storm clears.
  ASSERT_TRUE(q.submit(JobId{0}, 12, rng).has_value());
  q.set_backpressure(true);
  EXPECT_FALSE(q.submit(JobId{1}, 8, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{2}, 2, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{3}, 12, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{4}, 2, rng).has_value());
  EXPECT_EQ(q.deferred_total(), 4u);
  EXPECT_TRUE(q.finish(JobId{0}, rng).empty());
  EXPECT_EQ(q.free_gpus(), 16u);
  EXPECT_TRUE(q.drain_deferred(rng).empty());
  EXPECT_EQ(q.queue_depth(), 4u);

  // Storm clears: the backlog admits strictly in FIFO order — job 1 (8) and
  // job 2 (2) fit, job 3 (12) blocks on the remaining 6, and job 4 (2) must
  // NOT bypass it even though it would fit.
  q.set_backpressure(false);
  const auto first = q.drain_deferred(rng);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].job.get(), 1u);
  EXPECT_EQ(first[1].job.get(), 2u);
  EXPECT_EQ(q.retry_total(), 1u);
  EXPECT_TRUE(q.is_waiting(JobId{3}));
  EXPECT_TRUE(q.is_waiting(JobId{4}));

  // Job 1 departs: 14 free covers the blocked head, and the tail follows in
  // the original deferral order.
  const auto second = q.finish(JobId{1}, rng);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].job.get(), 3u);
  EXPECT_EQ(second[1].job.get(), 4u);
  EXPECT_EQ(q.queue_depth(), 0u);
}

TEST(ClusterChurn, AdmissionQueueBoundedRetryRejectsBlockedHead) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(smoke_spec());
  cluster::AdmissionQueue q(cluster, cluster::Placement::kCompact);
  Rng rng(25);
  q.set_max_retries(1);

  // Job 0 holds 12; job 1 (8) and job 2 (2) queue. Each failed head
  // placement consumes a retry; past the budget the head is rejected and the
  // queue moves on instead of livelocking.
  ASSERT_TRUE(q.submit(JobId{0}, 12, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{1}, 8, rng).has_value());
  EXPECT_FALSE(q.submit(JobId{2}, 2, rng).has_value());

  // First drain attempt: head (8) fails placement (4 free), retry 1 charged,
  // but job 2 must NOT bypass it.
  EXPECT_TRUE(q.drain_deferred(rng).empty());
  EXPECT_EQ(q.retry_total(), 1u);
  EXPECT_EQ(q.queue_depth(), 2u);

  // Second failure exhausts the budget: job 1 is rejected, job 2 admits.
  const auto admitted = q.drain_deferred(rng);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].job.get(), 2u);
  const std::vector<JobId> rejected = q.take_rejected();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].get(), 1u);
  EXPECT_EQ(q.queue_depth(), 0u);
}

TEST(ClusterChurn, PoissonTraceIsSeededAndWellFormed) {
  workload::ChurnSpec spec;
  spec.horizon = 4000.0;
  spec.mean_interarrival = 40.0;
  spec.mean_duration = 600.0;
  spec.sizes = {4, 8};
  spec.size_weights = {3.0, 1.0};

  const auto a = workload::poisson_jobs(spec, 99);
  const auto b = workload::poisson_jobs(spec, 99);
  const auto c = workload::poisson_jobs(spec, 100);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job.get(), b[i].job.get());
    EXPECT_DOUBLE_EQ(a[i].arrive, b[i].arrive);
    EXPECT_DOUBLE_EQ(a[i].depart, b[i].depart);
    EXPECT_EQ(a[i].gpus, b[i].gpus);
    EXPECT_LT(a[i].arrive, a[i].depart);
    EXPECT_LT(a[i].arrive, spec.horizon);
    EXPECT_TRUE(a[i].gpus == 4 || a[i].gpus == 8);
  }
  // A different seed really is a different trace.
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrive != c[i].arrive;
  }
  EXPECT_TRUE(differs);

  // Event stream: every job appears exactly twice (arrive + depart), sorted
  // by time.
  const auto events = workload::churn_events(a);
  ASSERT_EQ(events.size(), a.size() * 2);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);
  }
  std::vector<int> seen(a.size(), 0);
  for (const auto& ev : events) ++seen[ev.job.get()];
  for (int s : seen) EXPECT_EQ(s, 2);
}

}  // namespace
}  // namespace mccs
