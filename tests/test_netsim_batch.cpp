// Batched-mutation epoch (solve coalescing) tests.
//
// The contract under test (DESIGN.md §15): a Network with coalescing on
// produces a simulation bitwise identical to the per-mutation solve path, in
// both collection modes — every flow completes at the bit-identical virtual
// instant and the link change-log is entry-for-entry equal. The one
// permitted difference is the ORDER of completions within a single instant
// (per-flow cascades re-insert same-instant events in solve-history order; a
// coalesced solve emits them in ascending flow id), so streams are compared
// per flow id and after a canonical (time bits, id) sort, never positionally.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "sim/event_loop.h"
#include "telemetry/telemetry.h"

namespace mccs::net {
namespace {

std::uint64_t time_bits(Time t) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(t));
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

// --- seeded batched-vs-unbatched sweep --------------------------------------

/// A churn plan exercising everything a batch can coalesce: same-instant
/// start bursts (some flows latent, some sharing a bit-identical activation
/// instant), pause/resume pulses, cancels (including cancel of a flow
/// started in the same batch), and same-instant link-fault epochs.
struct BatchPlan {
  struct Start {
    Time at;
    NodeId src, dst;
    Bytes size;
    std::uint64_t ecmp_key;
    Time latency;
    Bandwidth cap;
    double weight;
    int burst;  ///< starts sharing a burst share one SolveBatch
  };
  struct Pulse {
    int target;
    Time pause_at, resume_at;
  };
  struct Cancel {
    int target;
    Time at;
  };
  struct FaultEpoch {
    Time at;
    std::vector<std::pair<std::uint32_t, bool>> links;  ///< (link, down?)
    Time clear_at;
  };
  std::vector<std::pair<NodeId, NodeId>> background;
  std::vector<Start> starts;
  std::vector<Pulse> pulses;
  std::vector<Cancel> cancels;
  std::vector<FaultEpoch> faults;
};

BatchPlan make_batch_plan(const std::vector<NodeId>& hosts,
                          std::size_t link_count, Rng& rng) {
  BatchPlan plan;
  auto pick_pair = [&] {
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = hosts[rng.below(hosts.size())];
    if (dst == src) dst = hosts[(dst.get() + 1) % hosts.size()];
    return std::pair{src, dst};
  };
  for (int b = 0; b < 2; ++b) plan.background.push_back(pick_pair());

  // 6 bursts of 2-5 flows, each burst at one instant. Within a burst, pairs
  // of latent flows share one latency value, so their activation instants
  // (burst time + latency) collide bit-for-bit — the activation-cohort path.
  int burst = 0;
  for (int b = 0; b < 6; ++b, ++burst) {
    const Time at = rng.uniform() * 0.04;
    const int width = 2 + static_cast<int>(rng.below(4));
    const Time shared_latency = rng.uniform() * 2e-3;
    for (int i = 0; i < width; ++i) {
      const auto [src, dst] = pick_pair();
      BatchPlan::Start s;
      s.at = at;
      s.src = src;
      s.dst = dst;
      s.size = 1 + rng.below(60'000'000);
      s.ecmp_key = rng.engine()();
      const double r = rng.uniform();
      s.latency = r < 0.3 ? shared_latency : (r < 0.5 ? rng.uniform() * 1e-3 : 0.0);
      s.cap = rng.uniform() < 0.2 ? gbps(3 + rng.uniform() * 30)
                                  : std::numeric_limits<Bandwidth>::infinity();
      s.weight = rng.uniform() < 0.2 ? 0.5 + rng.uniform() * 3.0 : 1.0;
      s.burst = burst;
      plan.starts.push_back(s);
    }
  }
  for (int p = 0; p < 4; ++p) {
    BatchPlan::Pulse pulse;
    pulse.target = static_cast<int>(rng.below(plan.starts.size()));
    pulse.pause_at = 0.004 + rng.uniform() * 0.04;
    pulse.resume_at = pulse.pause_at + 0.001 + rng.uniform() * 0.02;
    plan.pulses.push_back(pulse);
  }
  for (int c = 0; c < 4; ++c) {
    plan.cancels.push_back({static_cast<int>(rng.below(plan.starts.size())),
                            0.002 + rng.uniform() * 0.05});
  }
  // Two fault epochs: several links change state at one instant (a switch
  // failure takes all its ports), restored later, also in one epoch.
  for (int f = 0; f < 2; ++f) {
    BatchPlan::FaultEpoch ep;
    ep.at = 0.003 + rng.uniform() * 0.04;
    ep.clear_at = ep.at + 0.002 + rng.uniform() * 0.02;
    const int nlinks = 2 + static_cast<int>(rng.below(3));
    for (int l = 0; l < nlinks; ++l) {
      ep.links.emplace_back(static_cast<std::uint32_t>(rng.below(link_count)),
                            rng.uniform() < 0.5);
    }
    plan.faults.push_back(ep);
  }
  return plan;
}

struct BatchRunResult {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> completions;  ///< (id, tbits), arrival order
  std::vector<std::tuple<std::uint32_t, int, std::uint64_t, std::uint64_t>>
      link_log;  ///< (link, state, frac bits, time bits)
  std::vector<std::uint64_t> link_bits;  ///< per link at the end: bytes, throughput
  std::uint64_t solves = 0;
};

BatchRunResult run_batch_plan(const cluster::Cluster& cl, const BatchPlan& plan,
                              bool incremental, bool coalesce,
                              bool telemetry_on = false) {
  sim::EventLoop loop;
  Network net(loop, cl.topology(),
              Network::Options{.incremental = incremental,
                               .coalesce = coalesce});
  telemetry::Telemetry tel(telemetry_on);
  net.set_telemetry(&tel);
  BatchRunResult res;
  std::vector<std::optional<FlowId>> ids(plan.starts.size());

  for (const auto& [src, dst] : plan.background) {
    net.start_flow({.src = src, .dst = dst, .background_demand = gbps(20),
                    .on_complete = {}});
  }
  // Group each burst's starts under one SolveBatch. With coalesce off the
  // batch calls are no-ops, so BOTH runs execute the identical mutation
  // sequence — only the solve grouping differs.
  std::vector<std::vector<std::size_t>> bursts;
  for (std::size_t i = 0; i < plan.starts.size(); ++i) {
    const std::size_t b = static_cast<std::size_t>(plan.starts[i].burst);
    if (bursts.size() <= b) bursts.resize(b + 1);
    bursts[b].push_back(i);
  }
  for (const std::vector<std::size_t>& members : bursts) {
    if (members.empty()) continue;
    loop.schedule_at(plan.starts[members.front()].at, [&, members] {
      Network::SolveBatch batch(net);
      for (std::size_t i : members) {
        const BatchPlan::Start& s = plan.starts[i];
        FlowSpec spec;
        spec.src = s.src;
        spec.dst = s.dst;
        spec.size = s.size;
        spec.ecmp_key = s.ecmp_key;
        spec.start_latency = s.latency;
        spec.rate_cap = s.cap;
        spec.weight = s.weight;
        spec.on_complete = [&res](FlowId id, Time at) {
          res.completions.emplace_back(id.get(), time_bits(at));
        };
        ids[i] = net.start_flow(std::move(spec));
      }
    });
  }
  for (const BatchPlan::Pulse& p : plan.pulses) {
    loop.schedule_at(p.pause_at, [&, p] {
      if (ids[static_cast<std::size_t>(p.target)] &&
          net.flow_active(*ids[static_cast<std::size_t>(p.target)])) {
        net.pause_flow(*ids[static_cast<std::size_t>(p.target)]);
      }
    });
    loop.schedule_at(p.resume_at, [&, p] {
      if (ids[static_cast<std::size_t>(p.target)] &&
          net.flow_active(*ids[static_cast<std::size_t>(p.target)])) {
        net.resume_flow(*ids[static_cast<std::size_t>(p.target)]);
      }
    });
  }
  for (const BatchPlan::Cancel& c : plan.cancels) {
    loop.schedule_at(c.at, [&, c] {
      if (ids[static_cast<std::size_t>(c.target)] &&
          net.flow_active(*ids[static_cast<std::size_t>(c.target)])) {
        net.cancel_flow(*ids[static_cast<std::size_t>(c.target)]);
      }
    });
  }
  for (const BatchPlan::FaultEpoch& ep : plan.faults) {
    loop.schedule_at(ep.at, [&, ep] {
      Network::SolveBatch batch(net);
      for (const auto& [l, down] : ep.links) {
        net.set_link_state(LinkId{l},
                           down ? LinkState::kDown : LinkState::kDegraded,
                           down ? 1.0 : 0.5);
      }
    });
    loop.schedule_at(ep.clear_at, [&, ep] {
      Network::SolveBatch batch(net);
      for (const auto& [l, down] : ep.links) {
        net.set_link_state(LinkId{l}, LinkState::kUp);
      }
    });
  }
  loop.run();

  for (std::size_t i = 0; i < net.link_change_end(); ++i) {
    const LinkChange& lc = net.link_change(i);
    res.link_log.emplace_back(lc.link.get(), static_cast<int>(lc.state),
                              time_bits(lc.capacity_fraction),
                              time_bits(lc.at));
  }
  for (std::uint32_t l = 0; l < cl.topology().link_count(); ++l) {
    res.link_bits.push_back(time_bits(net.link_bytes(LinkId{l})));
    res.link_bits.push_back(time_bits(net.link_throughput(LinkId{l})));
  }
  res.solves = net.solves_total();
  return res;
}

/// Per flow id, `a` and `b` complete the same flows at bitwise-identical
/// instants. Returns false (after reporting) when they do not.
bool same_completions_per_flow(const BatchRunResult& a, const BatchRunResult& b,
                               std::uint64_t seed, const char* what) {
  EXPECT_EQ(a.completions.size(), b.completions.size())
      << "seed " << seed << " (" << what << ")";
  if (a.completions.size() != b.completions.size()) return false;
  std::map<std::uint32_t, std::uint64_t> by_id;
  for (const auto& [id, bits] : a.completions) {
    EXPECT_TRUE(by_id.emplace(id, bits).second)
        << "seed " << seed << ": flow " << id << " completed twice";
  }
  for (const auto& [id, bits] : b.completions) {
    const auto it = by_id.find(id);
    EXPECT_NE(it, by_id.end()) << "seed " << seed << " flow " << id;
    if (it == by_id.end()) return false;
    EXPECT_EQ(it->second, bits)
        << "seed " << seed << " flow " << id << ": " << what
        << " completion instants differ";
  }
  return true;
}

/// One seed: run the same plan batched and unbatched under one collection
/// mode and compare, then batched again with the timeline recording.
/// Reference collection also labels the sub-components no seed link reaches,
/// as clean; its batched run must match the incremental batched run too,
/// which never collects those flows at all.
/// Returns the number of completions cross-checked.
std::size_t check_batched_vs_unbatched(const cluster::Cluster& cl,
                                       const std::vector<NodeId>& hosts,
                                       std::uint64_t seed, bool incremental) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  const BatchPlan plan =
      make_batch_plan(hosts, cl.topology().link_count(), rng);
  const BatchRunResult bat =
      run_batch_plan(cl, plan, incremental, /*coalesce=*/true);
  const BatchRunResult unb =
      run_batch_plan(cl, plan, incremental, /*coalesce=*/false);

  // Coalescing must never run MORE solves than per-mutation solving.
  EXPECT_LE(bat.solves, unb.solves) << "seed " << seed;

  // Per flow id: the completion instant is bitwise identical.
  if (!same_completions_per_flow(bat, unb, seed, "batched and unbatched")) {
    return 0;
  }
  if (!incremental) {
    const BatchRunResult inc =
        run_batch_plan(cl, plan, /*incremental=*/true, /*coalesce=*/true);
    if (!same_completions_per_flow(bat, inc, seed,
                                   "reference and incremental batched")) {
      return 0;
    }
  }

  // The canonical (time bits, id) sort of the two streams is identical —
  // i.e. the streams are the same multiset, permuted only within instants.
  auto canonical = [](std::vector<std::pair<std::uint32_t, std::uint64_t>> v) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return std::tie(a.second, a.first) < std::tie(b.second, b.first);
    });
    return v;
  };
  EXPECT_EQ(canonical(bat.completions), canonical(unb.completions))
      << "seed " << seed;

  // The link change-log (an application-ordered journal that downstream
  // consumers replay) is entry-for-entry identical.
  EXPECT_EQ(bat.link_log, unb.link_log) << "seed " << seed;

  // Observing changes no simulated byte: with the timeline recording, the
  // batched run completes the same flows in the same order at the same
  // instants, and leaves every link's byte integral and throughput equal,
  // bit for bit.
  const BatchRunResult traced = run_batch_plan(
      cl, plan, incremental, /*coalesce=*/true, /*telemetry_on=*/true);
  EXPECT_EQ(traced.completions, bat.completions) << "seed " << seed;
  EXPECT_EQ(traced.link_bits, bat.link_bits) << "seed " << seed;
  return bat.completions.size();
}

/// The seeded sweep under one collection mode. Seeds are independent (each
/// builds its own EventLoop/Network), so the sweep fans out across the task
/// pool. MCCS_NETSIM_BATCH_SEEDS trims it for expensive instrumented runs
/// (TSan/ASan).
void batched_vs_unbatched_sweep(bool incremental) {
  const auto cl = cluster::make_testbed();
  const auto hosts = cl.topology().hosts();
  std::size_t num_seeds = 500;
  if (const char* env = std::getenv("MCCS_NETSIM_BATCH_SEEDS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) num_seeds = static_cast<std::size_t>(v);
  }
  std::atomic<std::size_t> total_completions{0};
  par::parallel_for(num_seeds, 16, [&](std::size_t begin, std::size_t end) {
    std::size_t local = 0;
    for (std::size_t seed = begin; seed < end; ++seed) {
      local += check_batched_vs_unbatched(cl, hosts, seed, incremental);
    }
    total_completions.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_GE(total_completions.load(), num_seeds);
}

TEST(NetsimBatch, BatchedMatchesUnbatchedAcross500Seeds) {
  batched_vs_unbatched_sweep(/*incremental=*/true);
}

TEST(NetsimBatch, ReferenceCollectionMatchesUnbatchedAndIncremental) {
  batched_vs_unbatched_sweep(/*incremental=*/false);
}

// --- edge cases -------------------------------------------------------------

TEST(NetsimBatch, SameInstantLatentActivationsShareOneSolve) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const NodeId a = cl.host(HostId{0}).nic_nodes[0];
  const NodeId b = cl.host(HostId{1}).nic_nodes[0];
  int completed = 0;
  // Four latent flows started at t=0 with one latency value: their
  // activation instants (0 + latency) are bit-identical, so one activation
  // cohort fires one event and its internal batch runs ONE solve.
  for (int i = 0; i < 4; ++i) {
    net.start_flow({.src = a, .dst = b, .size = 1_GB,
                    .ecmp_key = 11u + static_cast<std::uint64_t>(i),
                    .start_latency = 1e-3,
                    .on_complete = [&](FlowId, Time) { ++completed; }});
  }
  const std::uint64_t solves_before = net.solves_total();
  loop.run_until(2e-3);  // past activation, before any completion
  EXPECT_EQ(net.solves_total() - solves_before, 1u);
  EXPECT_EQ(net.active_flow_count(), 4u);
  loop.run();
  EXPECT_EQ(completed, 4);
}

TEST(NetsimBatch, CancelInsideBatchOfSameBatchStart) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const NodeId a = cl.host(HostId{0}).nic_nodes[0];
  const NodeId b = cl.host(HostId{1}).nic_nodes[0];
  bool survivor_done = false;
  bool cancelled_done = false;
  const std::uint64_t solves_before = net.solves_total();
  {
    Network::SolveBatch batch(net);
    const FlowId doomed = net.start_flow(
        {.src = a, .dst = b, .size = 8_MB, .ecmp_key = 1,
         .on_complete = [&](FlowId, Time) { cancelled_done = true; }});
    net.start_flow({.src = a, .dst = b, .size = 8_MB, .ecmp_key = 2,
                    .on_complete = [&](FlowId, Time) { survivor_done = true; }});
    {
      Network::SolveBatch nested(net);  // nesting: outermost close solves
      net.cancel_flow(doomed);
    }
    EXPECT_EQ(net.solves_total(), solves_before);  // still deferred
  }
  // One batch epoch, one solve, and the cancelled flow never allocated.
  EXPECT_EQ(net.solves_total() - solves_before, 1u);
  EXPECT_EQ(net.active_flow_count(), 1u);
  loop.run();
  EXPECT_TRUE(survivor_done);
  EXPECT_FALSE(cancelled_done);
}

TEST(NetsimBatch, DisjointSubComponentsSolveApartInsideOneBatch) {
  // max_min_allocate binds every flow whose share lies within a 1e-12
  // relative tolerance of the round's best share, so a joint solve of two
  // flows on disjoint paths whose bottlenecks differ by less than that would
  // fix both at the tighter one's rate. A batch's union solve reproduces the
  // per-mutation solves only because allocate_component solves each
  // disjoint sub-component on its own.
  auto cl = cluster::make_testbed();
  // Intra-rack flows under different leaves: their paths share no link.
  const NodeId a_src = cl.host(HostId{0}).nic_nodes[0];
  const NodeId a_dst = cl.host(HostId{1}).nic_nodes[0];
  const NodeId b_src = cl.host(HostId{2}).nic_nodes[0];
  const NodeId b_dst = cl.host(HostId{3}).nic_nodes[0];
  const LinkId degraded = cl.topology().out_links(a_src).front();

  // Rates right after one batch that starts the selected flows (0 = absent).
  auto solve = [&](bool start_a, bool start_b) {
    sim::EventLoop loop;
    Network net(loop, cl.topology());
    net.set_link_state(degraded, LinkState::kDegraded, 1.0 - 4e-13);
    auto start = [&net](NodeId src, NodeId dst) {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = 1'000'000'000;
      return net.start_flow(std::move(spec));
    };
    std::optional<FlowId> a, b;
    {
      Network::SolveBatch batch(net);
      if (start_a) a = start(a_src, a_dst);
      if (start_b) b = start(b_src, b_dst);
    }
    return std::pair{a ? net.flow_rate(*a) : 0.0, b ? net.flow_rate(*b) : 0.0};
  };
  const Bandwidth a_alone = solve(true, false).first;
  const Bandwidth b_alone = solve(false, true).second;
  const auto [a_joint, b_joint] = solve(true, true);
  ASSERT_LT(a_alone, b_alone);  // the degrade really is the tighter bottleneck
  EXPECT_EQ(time_bits(a_joint), time_bits(a_alone));
  EXPECT_EQ(time_bits(b_joint), time_bits(b_alone));
}

TEST(NetsimBatch, SameInstantCompletionsFromDifferentLabelsFireInIdOrder) {
  // A (h0 -> h1) and B (h2 -> h3) stay under their own leaves and share no
  // link. C (h2 -> h1) crosses from B's uplink to A's downlink, so all three
  // run at half the NIC rate. Cancelling C re-solves from C's path, whose
  // first link reaches B and whose last reaches A: that solve labels B
  // before A. A and B then finish equal remaining bytes at the full rate,
  // at one instant, and must complete in flow-id order in both modes.
  auto cl = cluster::make_testbed();
  const auto nic = [&cl](std::uint32_t h) {
    return cl.host(HostId{h}).nic_nodes[0];
  };
  for (const bool coalesce : {true, false}) {
    SCOPED_TRACE(coalesce ? "coalesce on" : "coalesce off");
    sim::EventLoop loop;
    Network net(loop, cl.topology(), Network::Options{.coalesce = coalesce});
    std::vector<std::pair<std::uint32_t, std::uint64_t>> done;
    const auto start = [&](std::uint32_t src, std::uint32_t dst, Bytes size) {
      return net.start_flow({.src = nic(src), .dst = nic(dst), .size = size,
                             .on_complete = [&done](FlowId id, Time t) {
                               done.emplace_back(id.get(), time_bits(t));
                             }});
    };
    const FlowId a = start(0, 1, 64_MB);
    const FlowId b = start(2, 3, 64_MB);
    const FlowId c = start(2, 1, 1_GB);
    const PathView pa = net.flow_path(a);
    const PathView pb = net.flow_path(b);
    const PathView pc = net.flow_path(c);
    ASSERT_EQ(pc.size(), 4u);
    ASSERT_EQ(pc[0], pb[0]);
    ASSERT_EQ(pc[3], pa[pa.size() - 1]);
    loop.schedule_at(1e-3, [&] { net.cancel_flow(c); });
    loop.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].first, a.get());
    EXPECT_EQ(done[1].first, b.get());
    EXPECT_EQ(done[0].second, done[1].second);
  }
}

TEST(NetsimBatch, EmptyBatchRunsNoSolve) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const std::uint64_t solves_before = net.solves_total();
  const std::uint64_t batches_before = net.batches_total();
  {
    Network::SolveBatch batch(net);
  }
  EXPECT_EQ(net.solves_total(), solves_before);
  EXPECT_EQ(net.batches_total(), batches_before);
}

TEST(NetsimBatch, EndBatchWithoutBeginThrows) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  EXPECT_THROW(net.end_batch(), ContractViolation);
}

TEST(NetsimBatch, MassCancelEpochRunsOneSolve) {
  // The kill_app shape: a tenant's flows all torn down at one instant must
  // cost one batch-close solve, not one per flow (regression companion to
  // FaultRecovery.TenantKillDuringBarrierDrainsAndOthersComplete, which
  // drives the same path through Fabric::kill_app).
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const auto hosts = cl.topology().hosts();
  std::vector<FlowId> tenant_a;
  int b_completed = 0;
  for (int i = 0; i < 4; ++i) {
    tenant_a.push_back(net.start_flow(
        {.src = hosts[0], .dst = hosts[1], .size = 64_MB,
         .ecmp_key = static_cast<std::uint64_t>(i), .on_complete = {}}));
    net.start_flow({.src = hosts[2], .dst = hosts[3], .size = 1_MB,
                    .ecmp_key = 100u + static_cast<std::uint64_t>(i),
                    .on_complete = [&](FlowId, Time) { ++b_completed; }});
  }
  loop.run_until(1e-4);
  const std::uint64_t solves_before = net.solves_total();
  {
    Network::SolveBatch batch(net);
    for (const FlowId f : tenant_a) net.cancel_flow(f);
  }
  EXPECT_EQ(net.solves_total() - solves_before, 1u);
  EXPECT_EQ(net.active_flow_count(), 4u);
  loop.run();
  EXPECT_EQ(b_completed, 4);
}

// --- telemetry --------------------------------------------------------------

TEST(NetsimBatch, TelemetryNeitherPerturbsNorDivergesAcrossRuns) {
  // A shared-bottleneck cascade under batched solves: (a) the link_gbps
  // counter stream — flushed once per solve, so once per batch close — is
  // deterministic across identical runs, and (b) observing it does not
  // perturb the simulation (completion instants bitwise identical with
  // telemetry on and off).
  auto cl = cluster::make_testbed();
  auto run = [&](bool telemetry_on) {
    sim::EventLoop loop;
    Network net(loop, cl.topology());
    telemetry::Telemetry tel(telemetry_on);
    net.set_telemetry(&tel);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> completions;
    const NodeId a = cl.host(HostId{0}).nic_nodes[0];
    const NodeId b = cl.host(HostId{1}).nic_nodes[0];
    {
      Network::SolveBatch batch(net);
      for (int i = 0; i < 3; ++i) {
        net.start_flow({.src = a, .dst = b, .size = Bytes{(i + 1) * 4_MB},
                        .ecmp_key = static_cast<std::uint64_t>(i),
                        .on_complete = [&](FlowId id, Time t) {
                          completions.emplace_back(id.get(), time_bits(t));
                        }});
      }
    }
    loop.run();
    return std::pair{completions, tel.timeline().chrome_trace_json()};
  };
  const auto [done_on, trace_on] = run(true);
  const auto [done_on2, trace_on2] = run(true);
  const auto [done_off, trace_off] = run(false);
  EXPECT_EQ(done_on, done_on2);
  EXPECT_EQ(trace_on, trace_on2);          // deterministic counter stream
  EXPECT_EQ(done_on, done_off);            // observation does not perturb
  EXPECT_NE(trace_on, trace_off);          // ...but it did observe something
}

TEST(NetsimBatch, SameInstantSolvesFromDifferentSeedsShareOneLinkSample) {
  // Timeline::counter merges a same-instant link_gbps sample into the
  // previous one when it carries the same keys. Seeded from a flow's last
  // link and then from its first, two unbatched solves discover its links,
  // and list them in the sample, in different orders; the second sample
  // must still overwrite the first.
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  telemetry::Telemetry tel(true);
  net.set_telemetry(&tel);
  // Cross-rack: NIC -> leaf -> spine -> leaf -> NIC.
  const FlowId f = net.start_flow({.src = cl.host(HostId{0}).nic_nodes[0],
                                   .dst = cl.host(HostId{2}).nic_nodes[0],
                                   .size = 1_GB, .on_complete = {}});
  const PathView path = net.flow_path(f);
  ASSERT_EQ(path.size(), 4u);
  const Bandwidth nominal = net.flow_rate(f);
  std::size_t added = 0;
  loop.schedule_at(1e-3, [&] {
    const std::size_t before = tel.timeline().event_count();
    net.set_link_state(path[3], LinkState::kDegraded, 0.5);
    EXPECT_EQ(net.flow_rate(f), nominal * 0.5);
    net.set_link_state(path[0], LinkState::kDegraded, 0.25);
    EXPECT_EQ(net.flow_rate(f), nominal * 0.25);
    added = tel.timeline().event_count() - before;
  });
  loop.run_until(2e-3);
  EXPECT_EQ(added, 1u);
}

}  // namespace
}  // namespace mccs::net
