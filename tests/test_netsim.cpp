#include "netsim/network.h"

#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "netsim/routing.h"
#include "netsim/topology.h"
#include "sim/event_loop.h"

namespace mccs::net {
namespace {

// Two hosts connected through one switch, 10 Gbps each way.
struct SimplePair {
  Topology topo;
  NodeId a, b, sw;
  SimplePair() {
    a = topo.add_host("a", RackId{0});
    b = topo.add_host("b", RackId{0});
    sw = topo.add_switch(NodeKind::kLeafSwitch, "sw");
    topo.add_duplex_link(a, sw, gbps(10));
    topo.add_duplex_link(b, sw, gbps(10));
  }
};

TEST(Topology, FindLinkReturnsAddedLinks) {
  SimplePair t;
  EXPECT_TRUE(t.topo.find_link(t.a, t.sw).valid());
  EXPECT_TRUE(t.topo.find_link(t.sw, t.a).valid());
  EXPECT_FALSE(t.topo.find_link(t.a, t.b).valid());
}

TEST(Topology, HostsListsOnlyHosts) {
  SimplePair t;
  const auto hosts = t.topo.hosts();
  EXPECT_EQ(hosts.size(), 2u);
}

TEST(Routing, SingleShortestPath) {
  SimplePair t;
  Routing routing(t.topo);
  const auto& ps = routing.paths(t.a, t.b);
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0].size(), 2u);  // a->sw, sw->b
}

TEST(Routing, SpineLeafEnumeratesAllSpinePaths) {
  cluster::SpineLeafSpec spec;
  spec.num_spines = 4;
  spec.num_leaves = 2;
  spec.hosts_per_leaf = 1;
  spec.gpus_per_host = 1;
  spec.nics_per_host = 1;
  auto cl = cluster::make_spine_leaf(spec);
  Routing routing(cl.topology());
  const NodeId src = cl.host(HostId{0}).nic_nodes[0];
  const NodeId dst = cl.host(HostId{1}).nic_nodes[0];
  const auto& ps = routing.paths(src, dst);
  // One equal-cost path per spine.
  EXPECT_EQ(ps.size(), 4u);
  for (const auto& p : ps) EXPECT_EQ(p.size(), 4u);  // nic-leaf-spine-leaf-nic
}

TEST(Routing, SameRackPathDoesNotTouchSpines) {
  auto cl = cluster::make_testbed();
  Routing routing(cl.topology());
  const NodeId src = cl.host(HostId{0}).nic_nodes[0];
  const NodeId dst = cl.host(HostId{1}).nic_nodes[0];  // same rack
  const auto& ps = routing.paths(src, dst);
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0].size(), 2u);
}

TEST(Routing, RouteIdSelectsDeterministically) {
  cluster::SpineLeafSpec spec;
  spec.num_spines = 4;
  spec.num_leaves = 2;
  spec.hosts_per_leaf = 1;
  auto cl = cluster::make_spine_leaf(spec);
  Routing routing(cl.topology());
  const NodeId src = cl.host(HostId{0}).nic_nodes[0];
  const NodeId dst = cl.host(HostId{1}).nic_nodes[0];
  const auto& p0 = routing.by_route_id(src, dst, RouteId{0});
  const auto& p1 = routing.by_route_id(src, dst, RouteId{1});
  const auto& p4 = routing.by_route_id(src, dst, RouteId{4});  // wraps
  EXPECT_NE(p0, p1);
  EXPECT_EQ(p0, p4);
}

TEST(Routing, EcmpIsDeterministicPerKey) {
  cluster::SpineLeafSpec spec;
  spec.num_spines = 8;
  spec.num_leaves = 2;
  spec.hosts_per_leaf = 1;
  auto cl = cluster::make_spine_leaf(spec);
  Routing routing(cl.topology());
  const NodeId src = cl.host(HostId{0}).nic_nodes[0];
  const NodeId dst = cl.host(HostId{1}).nic_nodes[0];
  EXPECT_EQ(routing.by_ecmp(src, dst, 42), routing.by_ecmp(src, dst, 42));
  // Different keys spread over multiple paths.
  std::set<const LinkId*> seen;
  for (std::uint64_t k = 0; k < 64; ++k) seen.insert(routing.by_ecmp(src, dst, k).begin());
  EXPECT_GT(seen.size(), 1u);
}

TEST(Network, SingleFlowGetsFullLinkRate) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time done = -1.0;
  net.start_flow({.src = t.a,
                  .dst = t.b,
                  .size = 1250000000ull,  // 1.25e9 B = 1 s at 10 Gbps
                  .on_complete = [&](FlowId, Time at) { done = at; }});
  loop.run();
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST(Network, TwoFlowsShareBottleneckFairly) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time d1 = -1, d2 = -1;
  const Bytes size = 1250000000ull;  // 1 s alone
  net.start_flow({.src = t.a, .dst = t.b, .size = size,
                  .on_complete = [&](FlowId, Time at) { d1 = at; }});
  net.start_flow({.src = t.a, .dst = t.b, .size = size,
                  .on_complete = [&](FlowId, Time at) { d2 = at; }});
  loop.run();
  EXPECT_NEAR(d1, 2.0, 1e-6);
  EXPECT_NEAR(d2, 2.0, 1e-6);
}

TEST(Network, ShorterFlowFinishesThenLongerSpeedsUp) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time d_small = -1, d_big = -1;
  net.start_flow({.src = t.a, .dst = t.b, .size = 625000000ull,  // 0.5 s alone
                  .on_complete = [&](FlowId, Time at) { d_small = at; }});
  net.start_flow({.src = t.a, .dst = t.b, .size = 1250000000ull,
                  .on_complete = [&](FlowId, Time at) { d_big = at; }});
  loop.run();
  // Small: 0.5e9/ (B/2)... shares until done at t=1.0; big then finishes the
  // remaining 0.625e9 at full rate: 1.0 + 0.5 = 1.5.
  EXPECT_NEAR(d_small, 1.0, 1e-6);
  EXPECT_NEAR(d_big, 1.5, 1e-6);
}

TEST(Network, RateCapLimitsFlow) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time done = -1;
  net.start_flow({.src = t.a, .dst = t.b, .size = 1250000000ull,
                  .rate_cap = gbps(5),
                  .on_complete = [&](FlowId, Time at) { done = at; }});
  loop.run();
  EXPECT_NEAR(done, 2.0, 1e-6);
}

TEST(Network, CapLeftoverGoesToOtherFlows) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time d1 = -1, d2 = -1;
  net.start_flow({.src = t.a, .dst = t.b, .size = 250000000ull,  // capped at 2G
                  .rate_cap = gbps(2),
                  .on_complete = [&](FlowId, Time at) { d1 = at; }});
  net.start_flow({.src = t.a, .dst = t.b, .size = 1000000000ull,  // gets 8G
                  .on_complete = [&](FlowId, Time at) { d2 = at; }});
  loop.run();
  EXPECT_NEAR(d1, 1.0, 1e-6);
  EXPECT_NEAR(d2, 1.0, 1e-6);
}

TEST(Network, BackgroundFlowHasStrictPriority) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  net.start_flow({.src = t.a, .dst = t.b, .background_demand = gbps(7.5), .on_complete = {}});
  Time done = -1;
  // Normal flow gets the residual 2.5 Gbps, not a fair half.
  net.start_flow({.src = t.a, .dst = t.b, .size = 312500000ull,  // 1 s at 2.5G
                  .on_complete = [&](FlowId, Time at) { done = at; }});
  loop.run_until(5.0);
  EXPECT_NEAR(done, 1.0, 1e-6);
}

TEST(Network, StartLatencyDelaysTransfer) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time done = -1;
  net.start_flow({.src = t.a, .dst = t.b, .size = 1250000000ull,
                  .start_latency = 0.25,
                  .on_complete = [&](FlowId, Time at) { done = at; }});
  loop.run();
  EXPECT_NEAR(done, 1.25, 1e-6);
}

TEST(Network, PauseFreezesProgressResumeContinues) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time done = -1;
  const FlowId f = net.start_flow({.src = t.a, .dst = t.b, .size = 1250000000ull,
                                   .on_complete = [&](FlowId, Time at) { done = at; }});
  loop.schedule_at(0.5, [&] { net.pause_flow(f); });
  loop.schedule_at(1.5, [&] { net.resume_flow(f); });
  loop.run();
  EXPECT_NEAR(done, 2.0, 1e-6);
}

TEST(Network, CancelledFlowNeverCompletes) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  bool completed = false;
  const FlowId f = net.start_flow({.src = t.a, .dst = t.b, .size = 1250000000ull,
                                   .on_complete = [&](FlowId, Time) { completed = true; }});
  loop.schedule_at(0.5, [&] { net.cancel_flow(f); });
  loop.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST(Network, LinkThroughputSumsFlowRates) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  net.start_flow({.src = t.a, .dst = t.b, .size = 1250000000ull, .on_complete = {}});
  net.start_flow({.src = t.a, .dst = t.b, .size = 1250000000ull, .on_complete = {}});
  const LinkId l = t.topo.find_link(t.a, t.sw);
  EXPECT_NEAR(net.link_throughput(l), gbps(10), 1.0);
  EXPECT_EQ(net.link_flow_count(l), 2u);
}

TEST(Network, EcmpCollisionHalvesThroughputExplicitRoutesAvoidIt) {
  // Two hosts, two equal-cost paths. With explicit distinct routes both
  // flows run at full speed; a deliberate collision halves each.
  cluster::SpineLeafSpec spec;
  spec.num_spines = 2;
  spec.num_leaves = 2;
  spec.hosts_per_leaf = 1;
  spec.nics_per_host = 2;
  spec.nic_link = gbps(10);
  spec.fabric_link = gbps(10);
  auto cl = cluster::make_spine_leaf(spec);
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const NodeId a0 = cl.host(HostId{0}).nic_nodes[0];
  const NodeId a1 = cl.host(HostId{0}).nic_nodes[1];
  const NodeId b0 = cl.host(HostId{1}).nic_nodes[0];
  const NodeId b1 = cl.host(HostId{1}).nic_nodes[1];

  Time d1 = -1, d2 = -1;
  const Bytes size = 1250000000ull;  // 1 s at 10G
  net.start_flow({.src = a0, .dst = b0, .size = size, .route = RouteId{0},
                  .on_complete = [&](FlowId, Time at) { d1 = at; }});
  net.start_flow({.src = a1, .dst = b1, .size = size, .route = RouteId{1},
                  .on_complete = [&](FlowId, Time at) { d2 = at; }});
  loop.run();
  EXPECT_NEAR(d1, 1.0, 1e-6);
  EXPECT_NEAR(d2, 1.0, 1e-6);

  // Now collide both on route 0: each leaf-spine link is shared.
  d1 = d2 = -1;
  const Time t0 = loop.now();
  net.start_flow({.src = a0, .dst = b0, .size = size, .route = RouteId{0},
                  .on_complete = [&](FlowId, Time at) { d1 = at - t0; }});
  net.start_flow({.src = a1, .dst = b1, .size = size, .route = RouteId{0},
                  .on_complete = [&](FlowId, Time at) { d2 = at - t0; }});
  loop.run();
  EXPECT_NEAR(d1, 2.0, 1e-6);
  EXPECT_NEAR(d2, 2.0, 1e-6);
}

TEST(Network, LinkIndexMatchesShadowScanUnderChurn) {
  // The O(1) per-link index (link_throughput / link_flow_count) must agree
  // with a brute-force scan over all active flows at every instant, through
  // starts, latent activations, pauses, resumes, cancels and completions —
  // in both the incremental and the reference engine.
  for (const bool incremental : {true, false}) {
    auto cl = cluster::make_testbed();
    const auto& topo = cl.topology();
    sim::EventLoop loop;
    Network net(loop, topo, Network::Options{incremental});
    Rng rng(incremental ? 0xC0FFEEull : 0xBEEFull);
    const auto hosts = topo.hosts();

    struct Shadow {
      FlowId id;
      Path path;
      Time active_from;  ///< start time + latency
      bool paused = false;
      bool background = false;
    };
    std::vector<Shadow> shadows;
    std::set<std::uint32_t> completed;

    auto verify = [&](Time now) {
      for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
        const LinkId link{l};
        double expect_tp = 0.0;
        std::size_t expect_cnt = 0;
        for (const Shadow& s : shadows) {
          if (completed.count(s.id.get()) > 0) continue;
          if (s.paused || s.active_from > now) continue;
          bool on_link = false;
          for (LinkId pl : s.path) on_link = on_link || pl == link;
          if (!on_link) continue;
          expect_tp += net.flow_rate(s.id);
          if (!s.background) ++expect_cnt;
        }
        EXPECT_NEAR(net.link_throughput(link), expect_tp, 1e-3)
            << "link " << l << " incremental=" << incremental;
        EXPECT_EQ(net.link_flow_count(link), expect_cnt)
            << "link " << l << " incremental=" << incremental;
      }
    };

    for (int step = 0; step < 60; ++step) {
      const Time now = step * 0.002;
      loop.run_until(now);
      const double dice = rng.uniform();
      if (dice < 0.55 || shadows.empty()) {
        const NodeId src = hosts[rng.below(hosts.size())];
        NodeId dst = hosts[rng.below(hosts.size())];
        if (dst == src) dst = hosts[(dst.get() + 1) % hosts.size()];
        FlowSpec spec;
        spec.src = src;
        spec.dst = dst;
        const bool background = rng.uniform() < 0.15;
        if (background) {
          spec.background_demand = gbps(5 + rng.uniform() * 20);
        } else {
          spec.size = 1 + rng.below(50'000'000);
          spec.start_latency = rng.uniform() < 0.3 ? rng.uniform() * 0.004 : 0.0;
        }
        spec.ecmp_key = rng.engine()();
        spec.on_complete = [&completed](FlowId id, Time) {
          completed.insert(id.get());
        };
        const Time latency = spec.start_latency;
        const FlowId id = net.start_flow(std::move(spec));
        shadows.push_back(Shadow{id, net.flow_path(id).to_path(), now + latency,
                                 false, background});
      } else {
        const std::size_t pick = rng.below(shadows.size());
        Shadow& s = shadows[pick];
        if (completed.count(s.id.get()) > 0) continue;
        if (dice < 0.7 && !s.background) {
          if (s.paused) {
            net.resume_flow(s.id);
            s.paused = false;
          } else {
            net.pause_flow(s.id);
            s.paused = true;
          }
        } else if (dice < 0.8) {
          net.cancel_flow(s.id);
          shadows.erase(shadows.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
      verify(now);
    }
  }
}

TEST(Network, MaxMinAllocationOnOversubscribedFabric) {
  // Testbed: intra-rack flow (host0->host1) and cross-rack flow share
  // nothing; cross-rack bottleneck is the 50G fabric link.
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const NodeId h0 = cl.host(HostId{0}).nic_nodes[0];
  const NodeId h1 = cl.host(HostId{1}).nic_nodes[0];
  const NodeId h2 = cl.host(HostId{2}).nic_nodes[0];
  Time d_intra = -1, d_cross = -1;
  const Bytes size = 6250000000ull;  // 1 s at 50G
  net.start_flow({.src = h0, .dst = h1, .size = size, .route = RouteId{0},
                  .on_complete = [&](FlowId, Time at) { d_intra = at; }});
  net.start_flow({.src = h0, .dst = h2, .size = size, .route = RouteId{0},
                  .on_complete = [&](FlowId, Time at) { d_cross = at; }});
  loop.run();
  // Both flows leave h0 via the same 50G NIC link -> share it.
  EXPECT_NEAR(d_intra, 2.0, 1e-6);
  EXPECT_NEAR(d_cross, 2.0, 1e-6);
}

TEST(Network, LinkDownStallsFlowAndRestoreResumes) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  Time done = -1.0;
  const FlowId f =
      net.start_flow({.src = t.a,
                      .dst = t.b,
                      .size = 1250000000ull,  // 1 s at 10 Gbps
                      .on_complete = [&](FlowId, Time at) { done = at; }});
  const LinkId up = t.topo.find_link(t.a, t.sw);
  loop.run_until(0.25);  // 25% transferred
  net.set_link_state(up, LinkState::kDown);
  EXPECT_EQ(net.link_state(up), LinkState::kDown);
  // A dead link stalls the flow at rate 0 — it must never silently complete.
  loop.run_until(10.0);
  EXPECT_LT(done, 0.0);
  EXPECT_TRUE(net.flow_active(f));
  EXPECT_EQ(net.flow_rate(f), 0.0);
  net.set_link_state(up, LinkState::kUp);
  loop.run();
  EXPECT_NEAR(done, 10.75, 1e-6);  // 0.75 s of payload remained at restore
}

TEST(Network, DegradedLinkRescalesCapacity) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  const LinkId up = t.topo.find_link(t.a, t.sw);
  net.set_link_state(up, LinkState::kDegraded, 0.5);
  EXPECT_EQ(net.link_state(up), LinkState::kDegraded);
  EXPECT_EQ(net.link_capacity_fraction(up), 0.5);
  Time done = -1.0;
  net.start_flow({.src = t.a,
                  .dst = t.b,
                  .size = 1250000000ull,  // 1 s at full rate
                  .on_complete = [&](FlowId, Time at) { done = at; }});
  loop.run();
  EXPECT_NEAR(done, 2.0, 1e-6);  // half capacity -> twice the time
}

TEST(Network, UnsatisfiableAllocationReportsTypedError) {
  SimplePair t;
  sim::EventLoop loop;
  Network net(loop, t.topo);
  int reports = 0;
  std::vector<FlowId> reported;
  net.set_allocation_error_handler([&](const AllocationError& err) {
    ++reports;
    reported = err.flows;
  });
  // A subnormal weight overflows residual/weight to infinity during
  // progressive filling — the allocation cannot be satisfied. The engine
  // must pin the flow at rate 0 and report, not abort the process.
  const FlowId f = net.start_flow({.src = t.a,
                                   .dst = t.b,
                                   .size = 1000,
                                   .weight = 1e-320,
                                   .on_complete = [](FlowId, Time) {}});
  loop.run_until(1.0);
  EXPECT_GE(net.allocation_error_count(), 1u);
  EXPECT_GE(reports, 1);
  ASSERT_FALSE(reported.empty());
  EXPECT_EQ(reported.front(), f);
  EXPECT_TRUE(net.flow_active(f));  // pinned, not silently completed
  EXPECT_EQ(net.flow_rate(f), 0.0);
}

TEST(Network, SolveStatsCountOneCrossRackStart) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  // On an idle testbed a cross-rack start solves once: one label holding the
  // flow and its four links (NIC -> leaf -> spine -> leaf -> NIC), one
  // water-filling round, one completion. The first solve is always timed.
  const FlowId f = net.start_flow({.src = cl.host(HostId{0}).nic_nodes[0],
                                   .dst = cl.host(HostId{2}).nic_nodes[0],
                                   .size = 1_GB, .on_complete = {}});
  ASSERT_EQ(net.flow_path(f).size(), 4u);
  const Network::SolveStats& st = net.solve_stats();
  EXPECT_EQ(st.solves, 1u);
  EXPECT_EQ(st.flows, 1u);
  EXPECT_EQ(st.links, 4u);
  EXPECT_EQ(st.labels, 1u);
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.completions, 1u);
  EXPECT_EQ(st.timed, 1u);
  const double epoch_s =
      st.discover_s + st.solve_s + st.schedule_s + st.refresh_s;
  EXPECT_GT(epoch_s, 0.0);

  // The completion re-solves from the flow's now memberless path: each of
  // its four links starts an empty label, so nothing is filled or derived.
  // The second solve is not timed.
  loop.run();
  EXPECT_EQ(st.solves, 2u);
  EXPECT_EQ(st.flows, 1u);
  EXPECT_EQ(st.links, 8u);
  EXPECT_EQ(st.labels, 5u);
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.completions, 1u);
  EXPECT_EQ(st.timed, 1u);
  EXPECT_EQ(st.discover_s + st.solve_s + st.schedule_s + st.refresh_s,
            epoch_s);
  EXPECT_EQ(net.solves_total(), st.solves);
}

}  // namespace
}  // namespace mccs::net
