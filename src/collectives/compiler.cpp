#include "collectives/compiler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"

namespace mccs::coll {
namespace {

int mod(int x, int n) { return ((x % n) + n) % n; }

// --- tree scaffolding --------------------------------------------------------
// Same rotated complete binary tree as schedule.cpp, generalized with a
// `mirror` flag: the normal mapping is tid = (rank - root) mod n, the mirrored
// one tid = (root - rank) mod n. A double binary tree pairs a normal and a
// mirrored tree (or two normal trees with different roots) so interior nodes
// of one are leaves of the other.

struct TreeShape {
  int parent = -1;      ///< tid of parent (-1 at root)
  int child_index = 0;  ///< 0 = left child of parent, 1 = right
  std::vector<int> children;  ///< tids
};

TreeShape tree_shape(int nranks, int tid) {
  TreeShape node;
  if (tid > 0) {
    node.parent = (tid - 1) / 2;
    node.child_index = (tid % 2 == 1) ? 0 : 1;
  }
  for (int c : {2 * tid + 1, 2 * tid + 2}) {
    if (c < nranks) node.children.push_back(c);
  }
  return node;
}

int rank_of_tid(int tid, int root, int n, bool mirror) {
  return mirror ? mod(root - tid, n) : mod(root + tid, n);
}

int tid_of_rank(int rank, int root, int n, bool mirror) {
  return mirror ? mod(root - rank, n) : mod(rank - root, n);
}

// --- phase emitters ----------------------------------------------------------
// Each appends one phase's CommSteps, numbering from `index` and tagging
// from `tag_base` so phases stay disjoint in tag space.

/// Ring phase from precomputed RingSteps. `buffer_kind` selects the
/// positional-chunk -> buffer-chunk mapping of the PARENT collective (an
/// AllReduce's AllGather phase addresses AllReduce chunks, not AllGather
/// blocks).
void append_ring_phase(ChannelSchedule& sched, int& index,
                       CollectiveKind buffer_kind, const RingOrder& order,
                       int rank, const std::vector<RingStep>& steps,
                       int tag_base) {
  const int pos = order.position_of(rank);
  const int succ = order.rank_at(pos + 1);
  const int pred = order.rank_at(pos - 1);
  for (const RingStep& rs : steps) {
    CommStep st;
    st.index = index++;
    if (rs.has_send()) {
      st.send_to = succ;
      st.send_chunk = chunk_to_buffer_index(buffer_kind, order, rs.send_chunk);
      st.send_tag = tag_base + rs.send_tag;
    }
    if (rs.has_recv()) {
      st.recv_from = pred;
      st.recv_chunk = chunk_to_buffer_index(buffer_kind, order, rs.recv_chunk);
      st.recv_tag = tag_base + rs.recv_tag;
      st.reduce = rs.reduce;
    }
    sched.steps.push_back(st);
  }
}

/// Tree reduce phase over chunks [c0, c1): recv children (reduce), send
/// parent. Tags 2k + child_index, offset by tag_base — chunk-global k keeps
/// two trees over disjoint chunk ranges disjoint in tag space too.
void append_tree_reduce(ChannelSchedule& sched, int& index, int nranks,
                        int rank, int root, bool mirror, std::size_t c0,
                        std::size_t c1, int tag_base) {
  const int tid = tid_of_rank(rank, root, nranks, mirror);
  const TreeShape node = tree_shape(nranks, tid);
  for (std::size_t k = c0; k < c1; ++k) {
    for (std::size_t c = 0; c < node.children.size(); ++c) {
      CommStep st;
      st.index = index++;
      st.recv_from = rank_of_tid(node.children[c], root, nranks, mirror);
      st.recv_chunk = k;
      st.recv_tag = tag_base + 2 * static_cast<int>(k) + static_cast<int>(c);
      st.reduce = true;
      sched.steps.push_back(st);
    }
    if (node.parent >= 0) {
      CommStep st;
      st.index = index++;
      st.send_to = rank_of_tid(node.parent, root, nranks, mirror);
      st.send_chunk = k;
      st.send_tag = tag_base + 2 * static_cast<int>(k) + node.child_index;
      sched.steps.push_back(st);
    }
  }
}

/// Tree broadcast phase over chunks [c0, c1): recv parent, send children.
/// Tags k + tag_base (one tag per chunk; parent->both-children share it,
/// which is legal — tag uniqueness is per receiving schedule).
void append_tree_broadcast(ChannelSchedule& sched, int& index, int nranks,
                           int rank, int root, bool mirror, std::size_t c0,
                           std::size_t c1, int tag_base) {
  const int tid = tid_of_rank(rank, root, nranks, mirror);
  const TreeShape node = tree_shape(nranks, tid);
  for (std::size_t k = c0; k < c1; ++k) {
    if (node.parent >= 0) {
      CommStep st;
      st.index = index++;
      st.recv_from = rank_of_tid(node.parent, root, nranks, mirror);
      st.recv_chunk = k;
      st.recv_tag = tag_base + static_cast<int>(k);
      st.reduce = false;
      sched.steps.push_back(st);
    }
    for (int child : node.children) {
      CommStep st;
      st.index = index++;
      st.send_to = rank_of_tid(child, root, nranks, mirror);
      st.send_chunk = k;
      st.send_tag = tag_base + static_cast<int>(k);
      sched.steps.push_back(st);
    }
  }
}

/// Pairwise-mesh reduce-scatter phase in ring-position space: at round s,
/// send my contribution to block `to` directly to rank `to`, receive rank
/// `from`'s contribution to my block and reduce. With a locality ring order
/// the early rounds pair same-host neighbours. Round-robin in position space
/// keeps every round a perfect matching of send/recv pairs.
void append_mesh_reducescatter(ChannelSchedule& sched, int& index,
                               const RingOrder& order, int rank,
                               int tag_base) {
  const int n = static_cast<int>(order.size());
  const int pos = order.position_of(rank);
  for (int s = 1; s < n; ++s) {
    const int to = order.rank_at(pos + s);
    const int from = order.rank_at(pos - s);
    CommStep st;
    st.index = index++;
    st.send_to = to;
    st.send_chunk = static_cast<std::size_t>(to);  // my contribution to `to`
    st.send_tag = tag_base + rank;                 // inbound tag = sender rank
    st.recv_from = from;
    st.recv_chunk = static_cast<std::size_t>(rank);  // reduce into my block
    st.recv_tag = tag_base + from;
    st.reduce = true;
    sched.steps.push_back(st);
  }
}

/// Pairwise-mesh all-gather phase: same round-robin, each rank streams its
/// own (already final) block to every peer.
void append_mesh_allgather(ChannelSchedule& sched, int& index,
                           const RingOrder& order, int rank, int tag_base) {
  const int n = static_cast<int>(order.size());
  const int pos = order.position_of(rank);
  for (int s = 1; s < n; ++s) {
    const int to = order.rank_at(pos + s);
    const int from = order.rank_at(pos - s);
    CommStep st;
    st.index = index++;
    st.send_to = to;
    st.send_chunk = static_cast<std::size_t>(rank);  // my block
    st.send_tag = tag_base + rank;
    st.recv_from = from;
    st.recv_chunk = static_cast<std::size_t>(from);  // peer's block
    st.recv_tag = tag_base + from;
    st.reduce = false;
    sched.steps.push_back(st);
  }
}

/// Star broadcast phase: the root streams every chunk directly to each peer.
void append_star_broadcast(ChannelSchedule& sched, int& index, int nranks,
                           int rank, int root, std::size_t num_chunks,
                           int tag_base) {
  for (std::size_t k = 0; k < num_chunks; ++k) {
    if (rank == root) {
      for (int q = 0; q < nranks; ++q) {
        if (q == root) continue;
        CommStep st;
        st.index = index++;
        st.send_to = q;
        st.send_chunk = k;
        st.send_tag = tag_base + static_cast<int>(k);
        sched.steps.push_back(st);
      }
    } else {
      CommStep st;
      st.index = index++;
      st.recv_from = root;
      st.recv_chunk = k;
      st.recv_tag = tag_base + static_cast<int>(k);
      st.reduce = false;
      sched.steps.push_back(st);
    }
  }
}

/// Star reduce phase: every peer sends every chunk straight to the root,
/// which reduces all n-1 contributions into place. Tags k*(n) + sender keep
/// the root's n-1 receive slots per chunk distinct.
void append_star_reduce(ChannelSchedule& sched, int& index, int nranks,
                        int rank, int root, std::size_t num_chunks,
                        int tag_base) {
  for (std::size_t k = 0; k < num_chunks; ++k) {
    if (rank == root) {
      for (int q = 0; q < nranks; ++q) {
        if (q == root) continue;
        CommStep st;
        st.index = index++;
        st.recv_from = q;
        st.recv_chunk = k;
        st.recv_tag = tag_base + static_cast<int>(k) * nranks + q;
        st.reduce = true;
        sched.steps.push_back(st);
      }
    } else {
      CommStep st;
      st.index = index++;
      st.send_to = root;
      st.send_chunk = k;
      st.send_tag = tag_base + static_cast<int>(k) * nranks + rank;
      sched.steps.push_back(st);
    }
  }
}

/// Apply the fallback contract: the algorithm whose lowering actually runs.
Algorithm effective_algorithm(CollectiveKind kind, Algorithm algo) {
  switch (kind) {
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      // Tree shapes cannot express block-per-rank outputs; ring can.
      if (algo == Algorithm::kTree || algo == Algorithm::kDoubleBinaryTree) {
        return Algorithm::kRing;
      }
      return algo;
    case CollectiveKind::kReduce:
      // Twin roots buy nothing when one root wants the whole result.
      if (algo == Algorithm::kDoubleBinaryTree) return Algorithm::kTree;
      return algo;
    case CollectiveKind::kAllToAll:
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
      return Algorithm::kRing;  // fixed-shape kinds; value unused
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kBroadcast:
      return algo;
  }
  return algo;
}

/// Double-binary-tree chunk count: even and >= 2 so the two trees split the
/// pipeline range evenly.
std::size_t dbt_chunks(std::size_t tree_chunks) {
  std::size_t kk = std::max<std::size_t>(2, tree_chunks);
  if (kk % 2 != 0) ++kk;
  return kk;
}

}  // namespace

ChannelSchedule compile_collective(const CompileInput& in) {
  MCCS_EXPECTS(in.order != nullptr);
  MCCS_EXPECTS(in.nranks >= 2);
  MCCS_EXPECTS(in.rank >= 0 && in.rank < in.nranks);
  MCCS_EXPECTS(in.root >= 0 && in.root < in.nranks);
  MCCS_EXPECTS(static_cast<int>(in.order->size()) == in.nranks);
  const int n = in.nranks;
  const std::size_t nsz = static_cast<std::size_t>(n);

  // Fixed-shape kinds first: no algorithm choice, dedicated builders.
  switch (in.kind) {
    case CollectiveKind::kAllToAll:
      return build_alltoall_schedule(n, in.rank);
    case CollectiveKind::kGather:
      return build_gather_schedule(n, in.rank, in.root);
    case CollectiveKind::kScatter:
      return build_scatter_schedule(n, in.rank, in.root);
    default:
      break;
  }

  const Algorithm algo = effective_algorithm(in.kind, in.algorithm);
  ChannelSchedule out;

  if (algo == Algorithm::kRing) {
    const int pos = in.order->position_of(in.rank);
    switch (in.kind) {
      case CollectiveKind::kAllReduce: {
        // Reduce-scatter then all-gather over the same ring. The all-gather
        // enters at position + 1 (where the reduce-scatter leaves each
        // position's finished chunk) with tags rebased past the
        // reduce-scatter's n-1; the concatenation reproduces
        // ring_allreduce_steps step for step, so plans compiled here are
        // bit-identical to the historical fused builder.
        out.num_chunks = nsz;
        int index = 0;
        append_ring_phase(out, index, in.kind, *in.order, in.rank,
                          ring_reducescatter_steps(n, pos), 0);
        append_ring_phase(out, index, in.kind, *in.order, in.rank,
                          ring_allgather_steps(n, mod(pos + 1, n)), n - 1);
        return out;
      }
      case CollectiveKind::kReduce:
        return build_chain_reduce_schedule(*in.order, in.rank, in.root);
      case CollectiveKind::kReduceScatter:
        // The plan's finalization copies this rank's reduced stripe out of
        // buffer block `rank`; the ring must finish that block here.
        MCCS_CHECK(chunk_to_buffer_index(in.kind, *in.order,
                                         reducescatter_owned_chunk(n, pos)) ==
                       static_cast<std::size_t>(in.rank),
                   "reduce-scatter chunk ownership mismatch");
        return build_ring_schedule(in.kind, *in.order, in.rank, in.root);
      case CollectiveKind::kAllGather:
      case CollectiveKind::kBroadcast:
        return build_ring_schedule(in.kind, *in.order, in.rank, in.root);
      default:
        MCCS_CHECK(false, "unhandled ring lowering");
    }
  }

  if (algo == Algorithm::kTree) {
    const std::size_t kk = std::max<std::size_t>(1, in.tree_chunks);
    out.num_chunks = kk;
    int index = 0;
    switch (in.kind) {
      case CollectiveKind::kAllReduce:
        // Reduce to rank 0, then Broadcast back down the same tree.
        // Identical emission to build_tree_allreduce_schedule.
        append_tree_reduce(out, index, n, in.rank, 0, false, 0, kk, 0);
        append_tree_broadcast(out, index, n, in.rank, 0, false, 0, kk,
                              2 * static_cast<int>(kk));
        return out;
      case CollectiveKind::kBroadcast:
        append_tree_broadcast(out, index, n, in.rank, in.root, false, 0, kk,
                              0);
        return out;
      case CollectiveKind::kReduce:
        append_tree_reduce(out, index, n, in.rank, in.root, false, 0, kk, 0);
        return out;
      default:
        MCCS_CHECK(false, "tree lowering: kind should have fallen back");
    }
  }

  if (algo == Algorithm::kDoubleBinaryTree) {
    const std::size_t kk = dbt_chunks(in.tree_chunks);
    const std::size_t half = kk / 2;
    out.num_chunks = kk;
    int index = 0;
    if (in.kind == CollectiveKind::kAllReduce) {
      // Two trees with different roots split the chunk range: tree A (root 0)
      // owns [0, half), tree B (root n/2) owns [half, kk), so no single rank
      // is the reduction root — and thus the NIC bottleneck — for every
      // chunk. Chunk-global tag arithmetic keeps the trees' tag sets
      // disjoint; phase-major order (all reduces, then all broadcasts) makes
      // the composition deadlock-free by the same induction as a single
      // tree.
      const int root_b = n / 2;
      append_tree_reduce(out, index, n, in.rank, 0, false, 0, half, 0);
      append_tree_reduce(out, index, n, in.rank, root_b, false, half, kk, 0);
      const int base = 2 * static_cast<int>(kk);
      append_tree_broadcast(out, index, n, in.rank, 0, false, 0, half, base);
      append_tree_broadcast(out, index, n, in.rank, root_b, false, half, kk,
                            base);
      return out;
    }
    MCCS_CHECK(in.kind == CollectiveKind::kBroadcast,
               "dbt lowering: kind should have fallen back");
    // Both trees share the caller's root; the second is the mirrored tree
    // (tid = root - rank), so interior nodes of one are leaves of the other
    // and each tree streams half the chunks.
    append_tree_broadcast(out, index, n, in.rank, in.root, false, 0, half, 0);
    append_tree_broadcast(out, index, n, in.rank, in.root, true, half, kk, 0);
    return out;
  }

  MCCS_CHECK(algo == Algorithm::kPairwise, "unknown algorithm");
  out.num_chunks = nsz;
  int index = 0;
  switch (in.kind) {
    case CollectiveKind::kAllReduce:
      // Mesh reduce-scatter then mesh all-gather, one direct flow per rank
      // pair per phase — no forwarding, 2 steps of latency.
      append_mesh_reducescatter(out, index, *in.order, in.rank, 0);
      append_mesh_allgather(out, index, *in.order, in.rank, n);
      return out;
    case CollectiveKind::kAllGather:
      append_mesh_allgather(out, index, *in.order, in.rank, 0);
      return out;
    case CollectiveKind::kReduceScatter:
      append_mesh_reducescatter(out, index, *in.order, in.rank, 0);
      return out;
    case CollectiveKind::kBroadcast:
      append_star_broadcast(out, index, n, in.rank, in.root, nsz, 0);
      return out;
    case CollectiveKind::kReduce:
      append_star_reduce(out, index, n, in.rank, in.root, nsz, 0);
      return out;
    default:
      MCCS_CHECK(false, "unhandled pairwise lowering");
  }
  return out;
}

std::vector<Algorithm> selectable_algorithms(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kBroadcast:
      return {Algorithm::kRing, Algorithm::kTree, Algorithm::kDoubleBinaryTree,
              Algorithm::kPairwise};
    case CollectiveKind::kReduce:
      return {Algorithm::kRing, Algorithm::kTree, Algorithm::kPairwise};
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      return {Algorithm::kRing, Algorithm::kPairwise};
    case CollectiveKind::kAllToAll:
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
      return {Algorithm::kRing};  // fixed shape; algorithm is a no-op
  }
  return {Algorithm::kRing};
}

std::vector<std::pair<int, int>> algorithm_edges(Algorithm algorithm,
                                                 const RingOrder& order) {
  const int n = static_cast<int>(order.size());
  std::vector<std::pair<int, int>> edges;
  if (n < 2) return edges;

  // Ring-successor edges in position order — byte-for-byte the enumeration
  // the flow assigner has always used, and the floor every algorithm needs
  // because fallback kinds (e.g. AllGather under kTree) still run rings.
  auto append_ring_edges = [&] {
    for (int p = 0; p < n; ++p) {
      edges.emplace_back(order.rank_at(p), order.rank_at(p + 1));
    }
  };

  switch (algorithm) {
    case Algorithm::kRing:
      append_ring_edges();
      return edges;
    case Algorithm::kTree:
      edges = tree_edges(n, 0, CollectiveKind::kAllReduce);
      append_ring_edges();
      break;
    case Algorithm::kDoubleBinaryTree: {
      edges = tree_edges(n, 0, CollectiveKind::kAllReduce);
      const auto tree_b = tree_edges(n, n / 2, CollectiveKind::kAllReduce);
      edges.insert(edges.end(), tree_b.begin(), tree_b.end());
      append_ring_edges();
      break;
    }
    case Algorithm::kPairwise:
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (i == j) continue;
          edges.emplace_back(order.rank_at(i), order.rank_at(j));
        }
      }
      return edges;  // already duplicate-free
  }

  // Tree unions can repeat edges (tree B overlapping tree A, rings touching
  // tree links); keep first occurrences, preserving order.
  std::unordered_set<long long> seen;
  std::vector<std::pair<int, int>> unique;
  unique.reserve(edges.size());
  for (const auto& e : edges) {
    const long long key = static_cast<long long>(e.first) * 1'000'000 + e.second;
    if (seen.insert(key).second) unique.push_back(e);
  }
  return unique;
}

Time algorithm_cost(Algorithm algorithm, CollectiveKind kind, int nranks,
                    Bytes bytes, const CostParams& p) {
  if (nranks <= 1) return 0.0;
  const double n = static_cast<double>(nranks);
  const double B = static_cast<double>(bytes);
  // Depth of the rotated complete binary tree (levels below the root).
  const double depth = std::ceil(std::log2(n + 1.0));
  const Algorithm algo = effective_algorithm(kind, algorithm);

  switch (kind) {
    case CollectiveKind::kAllReduce:
      switch (algo) {
        case Algorithm::kRing:
          // 2(n-1) serial steps; each byte crosses a link twice, striped.
          return 2.0 * (n - 1.0) * p.alpha + 2.0 * (n - 1.0) / n * B * p.beta;
        case Algorithm::kTree:
          // 2*depth hops up+down; the root's link carries ~2B each way.
          return 2.0 * depth * p.alpha + 4.0 * B * p.beta;
        case Algorithm::kDoubleBinaryTree:
          // Halved root bottleneck, but our lowering serializes the two
          // trees' phases, so the bandwidth term lands between tree and
          // ring and the latency term slightly above the single tree —
          // matching measurement, where this schedule never strictly wins.
          return (2.0 * depth + 2.0) * p.alpha + 3.6 * B * p.beta;
        case Algorithm::kPairwise:
          // 2 rounds of latency but n-1 concurrent flows fan in on each
          // NIC; model the serialization as a bandwidth penalty vs ring.
          return 2.0 * (n - 1.0) * p.alpha + 2.5 * (n - 1.0) / n * B * p.beta;
      }
      break;
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      if (algo == Algorithm::kPairwise) {
        return (n - 1.0) * p.alpha + 1.25 * (n - 1.0) / n * B * p.beta;
      }
      return (n - 1.0) * p.alpha + (n - 1.0) / n * B * p.beta;
    case CollectiveKind::kBroadcast:
    case CollectiveKind::kReduce:
      switch (algo) {
        case Algorithm::kRing:
          // Pipelined chain: n-1 hops of latency, each byte one link.
          return (n + 1.0) * p.alpha + B * p.beta;
        case Algorithm::kTree:
          // depth hops; interior nodes forward to two children serially.
          return depth * p.alpha + 2.0 * B * p.beta;
        case Algorithm::kDoubleBinaryTree:
          // Serialized halves again: latency of two interleaved trees.
          return (depth + 2.0) * p.alpha + 2.0 * B * p.beta;
        case Algorithm::kPairwise:
          // Star: the root's NIC carries (n-1) full copies.
          return (n - 1.0) * p.alpha + (n - 1.0) * B * p.beta;
      }
      break;
    case CollectiveKind::kAllToAll:
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
      // Fixed shape — a flat estimate so the selector is total.
      return (n - 1.0) * p.alpha + (n - 1.0) / n * B * p.beta;
  }
  return (n - 1.0) * p.alpha + B * p.beta;
}

Algorithm choose_algorithm(CollectiveKind kind, int nranks, Bytes bytes,
                           const CostParams& p) {
  Algorithm best = Algorithm::kRing;
  Time best_cost = 0.0;
  bool first = true;
  for (const Algorithm a : selectable_algorithms(kind)) {
    const Time c = algorithm_cost(a, kind, nranks, bytes, p);
    if (first || c < best_cost) {
      best = a;
      best_cost = c;
      first = false;
    }
  }
  return best;
}

}  // namespace mccs::coll
