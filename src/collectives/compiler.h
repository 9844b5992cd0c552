#pragma once
// Collective plan compiler: lowers any (CollectiveKind, Algorithm) pair into
// the per-rank ChannelSchedule the proxy engine executes, and is the only
// code that writes a CommStep. The service compiles each collective shape
// once and replays the plan (mccs/coll_plan.h), the compile-once/execute-
// many structure of GC3 and HiCCL (arXiv:2201.11840 / 2408.05962). Unlike
// those compilers there is no IR for later passes to rewrite:
// compile_collective is one lowering function whose emitters write
// CommSteps directly, one emitter per algorithm phase.
//
// Composite collectives lower as concatenated phases over a shared chunked
// buffer: AllReduce as ReduceScatter + AllGather (ring, pairwise) or Reduce +
// Broadcast (tree, double binary tree); Gather/Scatter as the copy-duals of
// Reduce/Broadcast over a root star. Each phase gets a disjoint tag base so
// the concatenated schedule keeps the one-slot-per-tag invariant
// build_coll_plan checks. Ring phases run over the strategy's RingOrder,
// which the locality policy builds as intra-host runs chained host to host;
// mesh phases exchange in ring-position space, so with a locality order the
// early rounds are the same-host neighbours.
//
// Emitters: kRing runs NCCL's ring pass (ReduceScatter, AllGather, and
// AllReduce as the two back to back), a pipelined chain for Broadcast and
// Reduce; kTree the rotated complete binary tree; kDoubleBinaryTree splits
// the chunk range across two differently-rooted trees; kPairwise exchanges
// directly over the mesh (a star for rooted kinds); AllToAll, Gather and
// Scatter have one fixed shape each. test_compiler.cpp executes every
// lowering over contribution ledgers and pins its output, and every
// algorithm_edges list, to a frozen digest: plan caches, flow assignment's
// flow order and the paper-figure goldens depend on every bit.
//
// Algorithm choice itself (choose_algorithm) is a separate selection pass
// over the analytic alpha-beta cost model: the controller runs it per
// topology + message size and installs the winner through the Fig.-4
// barrier; the compiler then lowers whatever the strategy says.
//
// Fallback contract (kinds an algorithm cannot express):
//   * AllGather/ReduceScatter under kTree / kDoubleBinaryTree -> ring
//     (their outputs are ring-structured by construction);
//   * Reduce under kDoubleBinaryTree -> single tree (one root wants the
//     full result, so twin roots buy nothing);
//   * AllToAll is always the pairwise mesh; Gather/Scatter always the root
//     star (a non-root relay would need peers' blocks the buffer model
//     gives them no room to hold).
// selectable_algorithms() names the algorithms that change the schedule for
// a kind; the fallbacks make every (kind, algorithm) pair executable.

#include <cstddef>
#include <utility>
#include <vector>

#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "collectives/types.h"
#include "common/units.h"

namespace mccs::coll {

/// Everything the compiler needs about one (collective, channel, rank).
struct CompileInput {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  Algorithm algorithm = Algorithm::kRing;
  int nranks = 0;
  int rank = 0;
  int root = 0;
  /// The channel's ring order (the locality policy encodes the intra-host
  /// runs here). Required.
  const RingOrder* order = nullptr;
  /// Pipeline granularity of tree algorithms (CommStrategy setting).
  std::size_t tree_chunks = 8;
};

/// Lower one (collective, channel, rank) to the schedule the proxy runs.
ChannelSchedule compile_collective(const CompileInput& in);

/// Algorithms that produce a distinct schedule for `kind` (the compiler's
/// search space; the correctness sweep enumerates exactly this).
std::vector<Algorithm> selectable_algorithms(CollectiveKind kind);

/// The (src rank, dst rank) superset a compiled schedule of `algorithm` can
/// send on over `order`, across all kinds — the edge list flow assignment
/// places demand for. For kRing this enumerates ring successors in position
/// order (identical to the historical assigner loop); the tree algorithms
/// add both directions of their AllReduce trees' edges first.
/// test_compiler.cpp property-checks that every compiled schedule's send
/// edges are covered.
std::vector<std::pair<int, int>> algorithm_edges(Algorithm algorithm,
                                                 const RingOrder& order);

// --- algorithm-choice pass (analytic alpha-beta cost model) -----------------

/// Model inputs, derivable from ServiceConfig + topology: `alpha` is the
/// per-step latency of one schedule hop (transport overhead + path latency),
/// `beta` the seconds-per-byte of the bottleneck (cross-host) link.
struct CostParams {
  Time alpha = 20e-6;
  double beta = 8e-11;  ///< 1 / (12.5 GB/s)
};

/// Predicted completion time of one collective of `bytes` bytes under
/// `algorithm` (fallbacks included: the cost of the schedule actually run).
Time algorithm_cost(Algorithm algorithm, CollectiveKind kind, int nranks,
                    Bytes bytes, const CostParams& p);

/// argmin of algorithm_cost over selectable_algorithms(kind); ties break to
/// the earlier enum value (kRing first), so the default wins when equal.
Algorithm choose_algorithm(CollectiveKind kind, int nranks, Bytes bytes,
                           const CostParams& p);

}  // namespace mccs::coll
