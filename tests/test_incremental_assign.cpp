// Property test for the warm-started IncrementalAssigner
// (policy/flow_assign.h): over randomized control-plane event streams —
// tenant arrivals, departures, priority flips, failed-link toggles and
// reserved-route changes — the incrementally maintained assignment must be
// EXACTLY the map assign_flows() produces from scratch over the live
// tenants in ascending-comm order with the same options. That identity is the whole contract: the controller may switch
// between the two solvers at any event with no observable difference.
//
// The sweep runs >= 200 seeds through the deterministic task pool (the
// seed-sweep idiom of the netsim property tests). Each seed owns its
// Cluster/Routing/allocator/assigner — Routing's lazy path cache is not
// thread-safe across seeds — and failures are collected per slot and
// asserted afterwards so one bad seed reports without racing gtest.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "mccs/strategy.h"
#include "netsim/routing.h"
#include "policy/flow_assign.h"
#include "policy/ring_config.h"

namespace mccs::policy {
namespace {

/// A live tenant mirrored on both sides of the comparison.
struct Tenant {
  std::vector<GpuId> gpus;
  svc::CommStrategy strategy;
  bool high_priority = false;
};

cluster::SpineLeafSpec small_clos() {
  // 4 spines x 4 leaves x 4 hosts x 2 GPUs = 32 GPUs. Small enough that the
  // from-scratch oracle is cheap per event, large enough for multi-path
  // ECMP, cross-rack rings, and non-trivial interference components.
  cluster::SpineLeafSpec spec;
  spec.num_spines = 4;
  spec.num_leaves = 4;
  spec.hosts_per_leaf = 4;
  spec.gpus_per_host = 2;
  spec.nics_per_host = 2;
  spec.nic_link = gbps(200);
  spec.fabric_link = gbps(200);
  return spec;
}

/// Drop tenants with no routed flows: assign_flows omits them from its
/// result while the warm assigner tracks them with an empty route map.
void strip_empty(std::unordered_map<std::uint32_t, RouteMap>& m) {
  for (auto it = m.begin(); it != m.end();) {
    it = it->second.empty() ? m.erase(it) : std::next(it);
  }
}

std::string diff_report(
    std::uint64_t seed, int event, const char* what,
    const std::unordered_map<std::uint32_t, RouteMap>& inc,
    const std::unordered_map<std::uint32_t, RouteMap>& full) {
  std::ostringstream os;
  os << "seed " << seed << " event " << event << " (" << what
     << "): incremental has " << inc.size() << " routed tenants, full has "
     << full.size();
  for (const auto& [id, routes] : full) {
    auto it = inc.find(id);
    if (it == inc.end()) {
      os << "; comm " << id << " missing from incremental";
    } else if (it->second != routes) {
      os << "; comm " << id << " differs (" << it->second.size() << " vs "
         << routes.size() << " routed flows)";
    }
  }
  return os.str();
}

/// One seed's event stream: returns an empty string on success, a diagnostic
/// on the first divergence.
std::string run_seed(std::uint64_t seed, int num_events) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(small_clos());
  const net::Routing routing(cluster.topology());
  cluster::GpuAllocator allocator(cluster);
  Rng rng(seed * 7919 + 17);

  IncrementalAssigner assigner(cluster, routing);
  AssignOptions options;

  std::unordered_map<std::uint32_t, Tenant> live;
  std::unordered_set<std::uint32_t> failed;  // mirrored into both solvers
  std::uint32_t next_id = 0;
  const std::size_t links = cluster.topology().link_count();
  static const std::vector<int> kSizes{2, 4, 8, 12};
  // Reserved-route regimes the stream cycles through: plain FFA, then PFA
  // with one / two reserved routes.
  static const std::vector<std::unordered_set<std::uint32_t>> kReserved{
      {}, {0}, {0, 1}};

  auto live_ids_sorted = [&] {
    std::vector<std::uint32_t> ids;
    ids.reserve(live.size());
    for (const auto& [id, t] : live) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  for (int ev = 0; ev < num_events; ++ev) {
    const double u = rng.uniform();
    const char* what = "noop";
    if (u < 0.45) {
      // Arrival. Placement policy itself is irrelevant to the identity —
      // alternate random/compact for coverage of both GPU shapes.
      what = "arrival";
      const int n = kSizes[rng.below(kSizes.size())];
      const cluster::Placement pl = rng.uniform() < 0.5
                                        ? cluster::Placement::kCompact
                                        : cluster::Placement::kRandom;
      auto placed = allocator.allocate(n, pl, rng);
      if (!placed) continue;  // full; the stream simply moves on
      Tenant t;
      t.strategy = locality_aware_strategy(*placed, cluster);
      t.gpus = std::move(*placed);
      t.high_priority = rng.uniform() < 0.25;
      const std::uint32_t id = next_id++;
      live.emplace(id, std::move(t));
      const Tenant& ref = live.at(id);
      AssignItem item;
      item.comm = CommId{id};
      item.app = AppId{id};
      item.gpus_by_rank = &ref.gpus;
      item.strategy = &ref.strategy;
      item.high_priority = ref.high_priority;
      assigner.add_item(item);
    } else if (u < 0.70) {
      what = "departure";
      if (live.empty()) continue;
      const auto ids = live_ids_sorted();
      const std::uint32_t id = ids[rng.below(ids.size())];
      allocator.release(live.at(id).gpus);
      live.erase(id);
      assigner.remove_item(CommId{id});
    } else if (u < 0.90) {
      what = "failed-link toggle";
      const std::uint32_t link = static_cast<std::uint32_t>(rng.below(links));
      if (!failed.erase(link)) failed.insert(link);
      options.failed_links = failed;
      assigner.set_failed_links(failed);
    } else if (u < 0.96) {
      what = "priority flip";
      if (live.empty()) continue;
      const auto ids = live_ids_sorted();
      const std::uint32_t id = ids[rng.below(ids.size())];
      Tenant& t = live.at(id);
      t.high_priority = !t.high_priority;
      assigner.set_high_priority(CommId{id}, t.high_priority);
    } else {
      what = "reserved-route change";
      const auto& r = kReserved[rng.below(kReserved.size())];
      options.reserved_routes = r;
      assigner.set_reserved_routes(r);
    }

    assigner.solve();

    // Oracle: from-scratch assign_flows over live tenants, ascending.
    std::vector<AssignItem> items;
    items.reserve(live.size());
    for (const std::uint32_t id : live_ids_sorted()) {
      const Tenant& t = live.at(id);
      AssignItem item;
      item.comm = CommId{id};
      item.app = AppId{id};
      item.gpus_by_rank = &t.gpus;
      item.strategy = &t.strategy;
      item.high_priority = t.high_priority;
      items.push_back(item);
    }
    auto full = assign_flows(items, cluster, routing, options);
    auto inc = assigner.assignments();
    strip_empty(full);
    strip_empty(inc);
    if (inc != full) {
      return diff_report(seed, ev, what, inc, full);
    }
  }
  return {};
}

TEST(IncrementalAssign, MatchesFullResolveOverRandomEventStreams) {
  int seeds = 200;
  if (const char* env = std::getenv("MCCS_ASSIGN_SEEDS")) {
    seeds = std::max(1, std::atoi(env));
  }
  std::vector<std::string> failures(static_cast<std::size_t>(seeds));
  par::parallel_for(static_cast<std::size_t>(seeds), 8,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t s = begin; s < end; ++s) {
                        failures[s] = run_seed(s, /*num_events=*/40);
                      }
                    });
  for (int s = 0; s < seeds; ++s) {
    EXPECT_TRUE(failures[static_cast<std::size_t>(s)].empty())
        << failures[static_cast<std::size_t>(s)];
  }
}

TEST(IncrementalAssign, CleanSolveIsANoop) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(small_clos());
  const net::Routing routing(cluster.topology());
  cluster::GpuAllocator allocator(cluster);
  Rng rng(3);

  IncrementalAssigner assigner(cluster, routing);
  auto gpus = allocator.allocate(8, cluster::Placement::kRandom, rng);
  ASSERT_TRUE(gpus.has_value());
  const svc::CommStrategy strategy = locality_aware_strategy(*gpus, cluster);
  AssignItem item;
  item.comm = CommId{0};
  item.app = AppId{0};
  item.gpus_by_rank = &*gpus;
  item.strategy = &strategy;
  assigner.add_item(item);

  const IncrementalSolveStats first = assigner.solve();
  EXPECT_EQ(first.solved_items, 1u);
  EXPECT_GT(first.flows_resolved, 0u);

  // Nothing changed since: the next solve must touch nothing.
  const IncrementalSolveStats second = assigner.solve();
  EXPECT_EQ(second.solved_items, 0u);
  EXPECT_EQ(second.flows_resolved, 0u);
  EXPECT_EQ(second.links_touched, 0u);
  EXPECT_EQ(second.live_items, 1u);
}

TEST(IncrementalAssign, RemovalDirtiesOnlyTheTouchedComponent) {
  // Two tenants on disjoint hosts in different racks are candidate-disjoint
  // (their flows' ECMP paths share no link): removing one must not re-solve
  // the other.
  const cluster::Cluster cluster = cluster::make_spine_leaf(small_clos());
  const net::Routing routing(cluster.topology());

  // Hosts 0..3 are rack 0, hosts 4..7 rack 1 (4 hosts per leaf). Two GPUs
  // per host; tenant A on hosts 0-1, tenant B on hosts 4-5 — both intra-rack.
  const std::vector<GpuId> gpus_a{GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3}};
  const std::vector<GpuId> gpus_b{GpuId{8}, GpuId{9}, GpuId{10}, GpuId{11}};
  const svc::CommStrategy strat_a = locality_aware_strategy(gpus_a, cluster);
  const svc::CommStrategy strat_b = locality_aware_strategy(gpus_b, cluster);

  IncrementalAssigner assigner(cluster, routing);
  AssignItem a{CommId{0}, AppId{0}, &gpus_a, &strat_a, false};
  AssignItem b{CommId{1}, AppId{1}, &gpus_b, &strat_b, false};
  assigner.add_item(a);
  assigner.add_item(b);
  assigner.solve();

  assigner.remove_item(CommId{0});
  const IncrementalSolveStats st = assigner.solve();
  EXPECT_EQ(st.live_items, 1u);
  EXPECT_EQ(st.solved_items, 0u) << "removing an intra-rack tenant must not "
                                    "re-solve a candidate-disjoint one";
}

/// A two-tenant world with cross-rack rings (multi-path flows), for the
/// audit/fallback tests below.
struct AuditWorld {
  cluster::Cluster cluster = cluster::make_spine_leaf(small_clos());
  net::Routing routing{cluster.topology()};
  std::vector<GpuId> gpus_a{GpuId{0}, GpuId{8}, GpuId{16}, GpuId{24}};
  std::vector<GpuId> gpus_b{GpuId{2}, GpuId{10}, GpuId{18}, GpuId{26}};
  svc::CommStrategy strat_a = locality_aware_strategy(gpus_a, cluster);
  svc::CommStrategy strat_b = locality_aware_strategy(gpus_b, cluster);
  IncrementalAssigner assigner{cluster, routing};

  AuditWorld() {
    AssignItem a{CommId{0}, AppId{0}, &gpus_a, &strat_a, false};
    AssignItem b{CommId{1}, AppId{1}, &gpus_b, &strat_b, false};
    assigner.add_item(a);
    assigner.add_item(b);
    assigner.solve();
  }

  std::uint64_t oracle() {
    std::vector<AssignItem> items;
    items.push_back(AssignItem{CommId{0}, AppId{0}, &gpus_a, &strat_a, false});
    items.push_back(AssignItem{CommId{1}, AppId{1}, &gpus_b, &strat_b, false});
    return assignment_digest(assign_flows(items, cluster, routing));
  }

  /// Force a solve that re-places nothing: toggle a failed link on the
  /// uplink of a NIC no tenant uses. The closure is empty, but the solve
  /// still counts for audit sampling.
  IncrementalSolveStats idle_solve() {
    const NodeId idle_nic = cluster.nic_node_of_gpu(GpuId{4});
    const std::uint32_t uplink =
        cluster.topology().out_links(idle_nic).front().get();
    idle_failed_ = idle_failed_.empty()
                       ? std::unordered_set<std::uint32_t>{uplink}
                       : std::unordered_set<std::uint32_t>{};
    assigner.set_failed_links(idle_failed_);
    return assigner.solve();
  }

 private:
  std::unordered_set<std::uint32_t> idle_failed_;
};

TEST(IncrementalAssignAudit, PoisonedStateIsCaughtAndHealed) {
  AuditWorld w;
  telemetry::MetricsRegistry metrics;
  w.assigner.set_audit({/*period=*/1, /*seed=*/42}, &metrics);
  ASSERT_EQ(assignment_digest(w.assigner.assignments()), w.oracle());

  ASSERT_TRUE(w.assigner.debug_poison_state(99));
  EXPECT_NE(assignment_digest(w.assigner.assignments()), w.oracle())
      << "poison must actually skew the stored assignment";

  // Poison raises no dirt, and dirtying any link in the tenants' candidate
  // sets would legitimately re-solve (and heal) the victim before the audit
  // compares. An idle solve re-places nothing, so the audit sees the
  // poisoned state.
  const IncrementalSolveStats st = w.idle_solve();
  EXPECT_TRUE(st.audited);
  EXPECT_TRUE(st.fell_back);
  EXPECT_EQ(w.assigner.audit_runs(), 1u);
  EXPECT_EQ(w.assigner.audit_mismatches(), 1u);
  EXPECT_EQ(w.assigner.fallbacks(), 1u);
  EXPECT_EQ(metrics.counter_total("policy_audit_mismatch_total"), 1u);
  EXPECT_EQ(assignment_digest(w.assigner.assignments()), w.oracle());

  // The adopted warm state must be a genuine warm start: re-placing one
  // tenant against it still matches the oracle.
  w.assigner.remove_item(CommId{1});
  w.assigner.add_item(
      AssignItem{CommId{1}, AppId{1}, &w.gpus_b, &w.strat_b, false});
  w.assigner.solve();
  EXPECT_EQ(assignment_digest(w.assigner.assignments()), w.oracle());
}

TEST(IncrementalAssignAudit, CleanStateAuditsWithoutFallback) {
  AuditWorld w;
  w.assigner.set_audit({/*period=*/1, /*seed=*/7});
  for (int i = 0; i < 5; ++i) w.idle_solve();
  EXPECT_EQ(w.assigner.audit_runs(), 5u);
  EXPECT_EQ(w.assigner.audit_mismatches(), 0u);
  EXPECT_EQ(w.assigner.fallbacks(), 0u);
}

TEST(IncrementalAssignAudit, SampledPeriodAuditsRoughlyOneInN) {
  AuditWorld w;
  w.assigner.set_audit({/*period=*/4, /*seed=*/123});
  for (int i = 0; i < 200; ++i) w.idle_solve();
  // Seeded hash sampling: expect ~50 audits out of 200 solves; accept a wide
  // band (this is a sanity check on the window math, not a statistics test).
  EXPECT_GT(w.assigner.audit_runs(), 20u);
  EXPECT_LT(w.assigner.audit_runs(), 100u);
}

TEST(IncrementalAssignAudit, TotalLinkDemandDrainsToZero) {
  AuditWorld w;
  EXPECT_GT(w.assigner.total_link_demand(), 0.0);
  w.assigner.remove_item(CommId{0});
  w.assigner.remove_item(CommId{1});
  w.assigner.solve();
  EXPECT_NEAR(w.assigner.total_link_demand(), 0.0, 1e-3);
}

}  // namespace
}  // namespace mccs::policy
