// Routing's cold resolution against an independent oracle, and its
// allocation bound.
//
// The oracle below is the earlier resolver kept verbatim in its algorithm:
// a bidirectional layered BFS that always expands the side with fewer
// frontier nodes, then a DFS that rescans each shortest-path-DAG node's
// whole out-link list, then a sort. The library's resolver records the DAG
// edges while it scans and walks only those; every RouteId keeps its meaning
// only if both return the same paths in the same order, on every fabric
// shape the repository builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/rng.h"
#include "helpers.h"
#include "netsim/routing.h"
#include "netsim/topology.h"

namespace mccs::net {
namespace {

/// All shortest paths by layered BFS + label-certified DFS over every
/// out-link, sorted (the oracle; shares no scratch with Routing).
class OracleRouting {
 public:
  explicit OracleRouting(const Topology& topo) : topo_(&topo) {}

  std::vector<Path> paths(NodeId src, NodeId dst) {
    constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
    const std::size_t n = topo_->node_count();
    fwd_.dist.resize(n);
    fwd_.epoch.resize(n, 0);
    rev_.dist.resize(n);
    rev_.epoch.resize(n, 0);
    ++fwd_.current;
    ++rev_.current;
    const auto fdist = [this](NodeId v) {
      return fwd_.epoch[v.get()] == fwd_.current ? fwd_.dist[v.get()] : kUnreached;
    };
    const auto rdist = [this](NodeId v) {
      return rev_.epoch[v.get()] == rev_.current ? rev_.dist[v.get()] : kUnreached;
    };
    const auto is_host = [this](NodeId v) {
      return topo_->node(v).kind == NodeKind::kHost;
    };

    fwd_.queue.assign(1, src);
    fwd_.dist[src.get()] = 0;
    fwd_.epoch[src.get()] = fwd_.current;
    rev_.queue.assign(1, dst);
    rev_.dist[dst.get()] = 0;
    rev_.epoch[dst.get()] = rev_.current;

    std::uint32_t F = 0;
    std::uint32_t R = 0;
    std::size_t fwd_lo = 0, fwd_hi = 1;
    std::size_t rev_lo = 0, rev_hi = 1;
    std::uint32_t D = kUnreached;
    const auto meet_ok = [&](NodeId v) { return v == dst || !is_host(v); };

    while (D > F + R || D == kUnreached) {
      const std::size_t fsz = fwd_hi - fwd_lo;
      const std::size_t rsz = rev_hi - rev_lo;
      if (fsz == 0 && rsz == 0) break;
      if (rsz == 0 || (fsz != 0 && fsz <= rsz)) {
        for (std::size_t i = fwd_lo; i < fwd_hi; ++i) {
          const NodeId u = fwd_.queue[i];
          if (u != src && is_host(u)) continue;
          for (LinkId lid : topo_->out_links(u)) {
            const NodeId v = topo_->link(lid).dst;
            if (fwd_.epoch[v.get()] == fwd_.current) continue;
            fwd_.epoch[v.get()] = fwd_.current;
            fwd_.dist[v.get()] = F + 1;
            fwd_.queue.push_back(v);
            const std::uint32_t rv = rdist(v);
            if (rv != kUnreached && meet_ok(v)) D = std::min(D, F + 1 + rv);
          }
        }
        fwd_lo = fwd_hi;
        fwd_hi = fwd_.queue.size();
        ++F;
      } else {
        for (std::size_t i = rev_lo; i < rev_hi; ++i) {
          const NodeId w = rev_.queue[i];
          if (w != dst && is_host(w)) continue;
          for (LinkId lid : topo_->in_links(w)) {
            const NodeId v = topo_->link(lid).src;
            if (rev_.epoch[v.get()] == rev_.current) continue;
            rev_.epoch[v.get()] = rev_.current;
            rev_.dist[v.get()] = R + 1;
            rev_.queue.push_back(v);
            const std::uint32_t fv = fdist(v);
            if (fv != kUnreached && (v == src || meet_ok(v))) {
              D = std::min(D, fv + R + 1);
            }
          }
        }
        rev_lo = rev_hi;
        rev_hi = rev_.queue.size();
        ++R;
      }
    }
    MCCS_CHECK(D != kUnreached, "destination unreachable");

    std::vector<Path> result;
    Path prefix;
    struct Frame {
      NodeId node;
      std::uint32_t next_out = 0;
    };
    std::vector<Frame> stack{{src, 0}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.node == dst) {
        result.push_back(prefix);
        stack.pop_back();
        if (!prefix.empty()) prefix.pop_back();
        continue;
      }
      if (f.node != src && is_host(f.node)) {
        stack.pop_back();
        if (!prefix.empty()) prefix.pop_back();
        continue;
      }
      const auto du = static_cast<std::uint32_t>(prefix.size());
      const auto& outs = topo_->out_links(f.node);
      bool descended = false;
      while (f.next_out < outs.size()) {
        const LinkId lid = outs[f.next_out++];
        const NodeId v = topo_->link(lid).dst;
        const std::uint32_t d = du + 1;
        if (d <= F && fdist(v) != d) continue;
        if (d + R >= D && rdist(v) != D - d) continue;
        prefix.push_back(lid);
        stack.push_back(Frame{v, 0});
        descended = true;
        break;
      }
      if (!descended && f.next_out >= outs.size()) {
        stack.pop_back();
        if (!prefix.empty()) prefix.pop_back();
      }
    }
    std::sort(result.begin(), result.end());
    return result;
  }

 private:
  struct BfsScratch {
    std::vector<std::uint32_t> dist;
    std::vector<std::uint64_t> epoch;
    std::uint64_t current = 0;
    std::vector<NodeId> queue;
  };
  const Topology* topo_;
  BfsScratch fwd_;
  BfsScratch rev_;
};

using Pair = std::pair<NodeId, NodeId>;

/// Resolve every pair with both resolvers and require identical path lists
/// in identical order. Each source gets a fresh Routing so the cache stays
/// small on the all-pairs sweeps; returns the number of paths compared.
std::size_t expect_identical(const Topology& topo, std::vector<Pair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  OracleRouting oracle(topo);
  std::optional<Routing> routing;
  NodeId cached_src;
  std::size_t compared = 0;
  for (const auto& [src, dst] : pairs) {
    if (!routing || src != cached_src) {
      routing.emplace(topo);
      cached_src = src;
    }
    const std::vector<Path> want = oracle.paths(src, dst);
    const PathSet got = routing->paths(src, dst);
    EXPECT_EQ(got.size(), want.size()) << "pair " << src << " -> " << dst;
    if (got.size() != want.size()) return compared;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!(got[i] == PathView(want[i]))) {
        ADD_FAILURE() << "pair " << src << " -> " << dst << ": path " << i
                      << " differs from the oracle's";
        return compared;
      }
    }
    compared += want.size();
  }
  return compared;
}

std::vector<Pair> all_node_pairs(const Topology& topo) {
  std::vector<Pair> pairs;
  const auto n = static_cast<std::uint32_t>(topo.node_count());
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      if (a != b) pairs.emplace_back(NodeId{a}, NodeId{b});
    }
  }
  return pairs;
}

std::vector<NodeId> nics(const cluster::Cluster& cl) {
  std::vector<NodeId> out;
  for (std::size_t h = 0; h < cl.host_count(); ++h) {
    const auto& nn = cl.host(HostId{static_cast<std::uint32_t>(h)}).nic_nodes;
    out.insert(out.end(), nn.begin(), nn.end());
  }
  return out;
}

/// `per_kind` seeded same-rack NIC pairs and as many cross-rack ones.
std::vector<Pair> sampled_pairs(const cluster::Cluster& cl, std::size_t per_kind,
                                std::uint64_t seed) {
  const std::vector<NodeId> all = nics(cl);
  const auto rack = [&](NodeId v) { return cl.topology().node(v).rack; };
  Rng rng(seed);
  std::vector<Pair> pairs;
  std::size_t same = 0, cross = 0;
  while (same < per_kind || cross < per_kind) {
    const NodeId a = all[rng.below(all.size())];
    const NodeId b = all[rng.below(all.size())];
    if (a == b) continue;
    std::size_t& kind = rack(a) == rack(b) ? same : cross;
    if (kind == per_kind) continue;
    ++kind;
    pairs.emplace_back(a, b);
  }
  return pairs;
}

TEST(RoutingIdentity, TestbedAllNodePairs) {
  const auto cl = cluster::make_testbed();
  EXPECT_GT(expect_identical(cl.topology(), all_node_pairs(cl.topology())), 0u);
}

TEST(RoutingIdentity, SpineLeafShapesAllNodePairs) {
  struct Shape {
    int spines, leaves, hosts, nics;
  };
  // 1x1, 2x2, 4x2, then svc_small's 4x4x2 and svc_train_churn's 4x4x4.
  for (const Shape& sh : {Shape{1, 1, 2, 2}, Shape{2, 2, 2, 2}, Shape{4, 2, 2, 2},
                          Shape{4, 4, 2, 8}, Shape{4, 4, 4, 8}}) {
    SCOPED_TRACE(::testing::Message() << sh.spines << "x" << sh.leaves << "x"
                                      << sh.hosts);
    cluster::SpineLeafSpec spec;
    spec.num_spines = sh.spines;
    spec.num_leaves = sh.leaves;
    spec.hosts_per_leaf = sh.hosts;
    spec.gpus_per_host = sh.nics;
    spec.nics_per_host = sh.nics;
    const auto cl = cluster::make_spine_leaf(spec);
    EXPECT_GT(expect_identical(cl.topology(), all_node_pairs(cl.topology())), 0u);
  }
}

TEST(RoutingIdentity, FatTreeAllNodePairs) {
  cluster::FatTreeSpec wide;
  wide.num_pods = 3;
  wide.spines_per_pod = 2;
  wide.leaves_per_pod = 3;
  wide.num_cores = 4;
  wide.hosts_per_leaf = 2;
  wide.gpus_per_host = 2;
  wide.nics_per_host = 2;
  for (const cluster::FatTreeSpec& spec : {cluster::FatTreeSpec{}, wide}) {
    const auto cl = cluster::make_fat_tree(spec);
    EXPECT_GT(expect_identical(cl.topology(), all_node_pairs(cl.topology())), 0u);
  }
}

TEST(RoutingIdentity, SwitchRingsAllNodePairs) {
  for (int n = 3; n <= 9; ++n) {
    SCOPED_TRACE(::testing::Message() << n << " switches");
    const auto cl = cluster::make_switch_ring(n, 2, 2, gbps(100));
    EXPECT_GT(expect_identical(cl.topology(), all_node_pairs(cl.topology())), 0u);
  }
}

// The 768-GPU fabric's ~589k ordered NIC pairs, split by source into shards
// that ctest runs side by side.
constexpr int kLargeSimShards = 8;

struct LargeSimAllNicPairs : ::testing::TestWithParam<int> {};

TEST_P(LargeSimAllNicPairs, MatchTheOracle) {
  const auto cl = cluster::make_large_sim_cluster();
  const std::vector<NodeId> all = nics(cl);
  std::vector<Pair> pairs;
  for (std::size_t a = static_cast<std::size_t>(GetParam()); a < all.size();
       a += kLargeSimShards) {
    for (NodeId b : all) {
      if (all[a] != b) pairs.emplace_back(all[a], b);
    }
  }
  EXPECT_GT(expect_identical(cl.topology(), std::move(pairs)), 0u);
}

INSTANTIATE_TEST_SUITE_P(RoutingIdentity, LargeSimAllNicPairs,
                         ::testing::Range(0, kLargeSimShards));

TEST(RoutingIdentity, ScaledFabricsSampledPairs) {
  cluster::SpineLeafSpec clos1k;  // cluster_day's clos-1k
  clos1k.num_spines = 16;
  clos1k.num_leaves = 8;
  clos1k.hosts_per_leaf = 16;
  clos1k.gpus_per_host = 8;
  clos1k.nics_per_host = 8;
  {
    SCOPED_TRACE("clos-1k");
    const auto cl = cluster::make_spine_leaf(clos1k);
    EXPECT_GT(expect_identical(cl.topology(), sampled_pairs(cl, 2000, 1)), 0u);
  }
  for (const int gpus : {4096, 8192}) {
    SCOPED_TRACE(::testing::Message() << gpus << " GPUs");
    const auto cl = cluster::make_scaled_sim_cluster(gpus);
    const auto seed = static_cast<std::uint64_t>(gpus);
    EXPECT_GT(expect_identical(cl.topology(), sampled_pairs(cl, 2000, seed)), 0u);
  }
}

TEST(RoutingIdentity, Scaled32kSampledPairs) {
  const auto cl = cluster::make_scaled_sim_cluster(32768);
  EXPECT_GT(expect_identical(cl.topology(), sampled_pairs(cl, 500, 32768)), 0u);
}

TEST(RoutingAlloc, ColdPairAllocatesTheSameWhateverItsPathCount) {
  // A warm resolver's cold pair allocates only its cache entry: one
  // cross-rack pair on the 8k Clos (32 paths) and one same-rack pair (1
  // path) make the same small number of allocations.
  const auto cl = cluster::make_scaled_sim_cluster(8192);
  const auto nic_in_rack = [&](std::uint32_t rack, std::size_t k) {
    std::size_t seen = 0;
    for (std::size_t h = 0; h < cl.host_count(); ++h) {
      const auto& host = cl.host(HostId{static_cast<std::uint32_t>(h)});
      if (host.rack != RackId{rack}) continue;
      if (seen++ == k) return host.nic_nodes[0];
    }
    MCCS_CHECK(false, "rack has too few hosts");
    return NodeId{};
  };
  Routing routing(cl.topology());
  // Size the resolver's scratch and open the arena and the cache.
  routing.paths(nic_in_rack(0, 0), nic_in_rack(1, 0));
  routing.paths(nic_in_rack(0, 0), nic_in_rack(0, 1));

  [[maybe_unused]] std::uint64_t cross = 0, same = 0;
  std::size_t cross_paths = 0, same_paths = 0;
  {
    test::AllocationCounter allocs;
    cross_paths = routing.paths(nic_in_rack(2, 0), nic_in_rack(3, 0)).size();
    cross = allocs.count();
  }
  {
    test::AllocationCounter allocs;
    same_paths = routing.paths(nic_in_rack(4, 0), nic_in_rack(4, 1)).size();
    same = allocs.count();
  }
  ASSERT_EQ(cross_paths, 32u);
  ASSERT_EQ(same_paths, 1u);
#if !defined(MCCS_UNDER_SANITIZER)
  EXPECT_EQ(cross, same) << "cold resolution allocates per path";
  EXPECT_LE(cross, 1u) << "cold resolution allocates beyond its cache entry";
#endif
}

}  // namespace
}  // namespace mccs::net
