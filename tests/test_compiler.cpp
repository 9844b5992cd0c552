// Tests of the collective plan compiler (collectives/compiler.h).
//
// Coverage, per the compiler's contract:
//  * correctness sweep — every CollectiveKind x every selectable algorithm x
//    nranks 2..17 x two ring orders x roots {0, n/2, n-1} x tree chunks
//    {1, 3, 8}, executed abstractly over contribution ledgers (the one
//    schedule executor in the suite) and checked against the collective's
//    set-theoretic oracle, plus ring AllReduce under a rotated order;
//  * frozen lowering digest — an FNV-1a fold of every compiled schedule and
//    every algorithm_edges list over the same grid, so no output moves by a
//    bit unnoticed (plan caches, FFA's flow order and the paper-figure
//    goldens depend on it);
//  * tree edge audit — the advertised flow edges of the tree AllReduces
//    are exactly the edges the compiled schedules send on plus the ring
//    floor, for nranks in [2, 64];
//  * edge coverage — every send a compiled schedule performs is inside
//    algorithm_edges(), so flow assignment places demand for all of it;
//  * the algorithm-choice pass (analytic cost model);
//  * end-to-end numerical correctness through the MCCS service for double
//    binary tree and pairwise, including a 17-rank communicator and the
//    single-rank short-circuit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/compiler.h"
#include "collectives/schedule.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "mccs/strategy.h"

namespace mccs {
namespace {

using coll::Algorithm;
using coll::ChannelSchedule;
using coll::CollectiveKind;
using coll::CommStep;
using coll::CompileInput;
using coll::RingOrder;

// --- abstract ledger execution ---------------------------------------------------

/// Message-driven executor mirroring the proxy's: each rank walks its steps
/// in order; a send is applied at the receiver at once and tagged; a step
/// completes once its send is out and its recv tag arrived. Matched
/// send/recv pairs may name different buffer chunks (AllToAll moves block
/// `dst` of the sender into block `src` of the receiver).
using Ledger = std::vector<std::map<int, int>>;  // per chunk: contributor->count

std::vector<Ledger> run_schedules(const std::vector<ChannelSchedule>& scheds,
                                  std::vector<Ledger> state,
                                  bool frozen_sends = false) {
  const int n = static_cast<int>(scheds.size());
  // AllToAll reads from a send buffer the receives never touch (the shim
  // takes distinct pointers); every other kind operates in one work buffer.
  const std::vector<Ledger> send_state = frozen_sends ? state
                                                      : std::vector<Ledger>{};
  std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
  std::vector<bool> sent(static_cast<std::size_t>(n), false);
  std::vector<std::set<int>> arrived(static_cast<std::size_t>(n));
  bool progress = true;
  auto all_done = [&] {
    for (int r = 0; r < n; ++r) {
      if (cur[static_cast<std::size_t>(r)] <
          scheds[static_cast<std::size_t>(r)].steps.size())
        return false;
    }
    return true;
  };
  while (!all_done()) {
    EXPECT_TRUE(progress) << "compiled schedule deadlocked";
    if (!progress) break;
    progress = false;
    for (int r = 0; r < n; ++r) {
      auto& c = cur[static_cast<std::size_t>(r)];
      const auto& steps = scheds[static_cast<std::size_t>(r)].steps;
      if (c >= steps.size()) continue;
      const CommStep& st = steps[c];
      if (st.has_send() && !sent[static_cast<std::size_t>(r)]) {
        const auto& peer_steps =
            scheds[static_cast<std::size_t>(st.send_to)].steps;
        const CommStep* match = nullptr;
        for (const CommStep& ps : peer_steps) {
          if (ps.has_recv() && ps.recv_tag == st.send_tag) {
            match = &ps;
            break;
          }
        }
        EXPECT_NE(match, nullptr) << "unmatched send tag " << st.send_tag;
        if (match == nullptr) return state;
        EXPECT_EQ(match->recv_from, r);
        auto& dst_chunk =
            state[static_cast<std::size_t>(st.send_to)][match->recv_chunk];
        const auto& src_chunk =
            (frozen_sends ? send_state
                          : state)[static_cast<std::size_t>(r)][st.send_chunk];
        if (match->reduce) {
          for (const auto& [who, cnt] : src_chunk) dst_chunk[who] += cnt;
        } else {
          dst_chunk = src_chunk;
        }
        arrived[static_cast<std::size_t>(st.send_to)].insert(st.send_tag);
        sent[static_cast<std::size_t>(r)] = true;
        progress = true;
      }
      const bool send_ok = !st.has_send() || sent[static_cast<std::size_t>(r)];
      const bool recv_ok = !st.has_recv() ||
                           arrived[static_cast<std::size_t>(r)].count(st.recv_tag) > 0;
      if (send_ok && recv_ok) {
        ++c;
        sent[static_cast<std::size_t>(r)] = false;
        progress = true;
      }
    }
  }
  return state;
}

std::vector<ChannelSchedule> compile_all(CollectiveKind kind, Algorithm algo,
                                         const RingOrder& order, int root,
                                         std::size_t tree_chunks) {
  const int n = static_cast<int>(order.size());
  std::vector<ChannelSchedule> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    CompileInput in;
    in.kind = kind;
    in.algorithm = algo;
    in.nranks = n;
    in.rank = r;
    in.root = root;
    in.order = &order;
    in.tree_chunks = tree_chunks;
    out.push_back(coll::compile_collective(in));
  }
  return out;
}

/// Initial ledgers encoding who holds what before the collective runs.
std::vector<Ledger> initial_state(CollectiveKind kind, int n, int root,
                                  std::size_t chunks) {
  std::vector<Ledger> state(static_cast<std::size_t>(n), Ledger(chunks));
  auto& s = state;
  switch (kind) {
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kReduce:
    case CollectiveKind::kReduceScatter:
      // Every rank contributes to every chunk.
      for (int r = 0; r < n; ++r)
        for (std::size_t c = 0; c < chunks; ++c)
          s[static_cast<std::size_t>(r)][c][r] = 1;
      break;
    case CollectiveKind::kBroadcast:
      for (std::size_t c = 0; c < chunks; ++c)
        s[static_cast<std::size_t>(root)][c][root] = 1;
      break;
    case CollectiveKind::kAllGather:
      // Rank r starts holding only its own block.
      for (int r = 0; r < n; ++r)
        s[static_cast<std::size_t>(r)][static_cast<std::size_t>(r)][r] = 1;
      break;
    case CollectiveKind::kAllToAll:
      // Block b of rank r is the distinct token r*1000 + b.
      for (int r = 0; r < n; ++r)
        for (std::size_t b = 0; b < chunks; ++b)
          s[static_cast<std::size_t>(r)][b][r * 1000 + static_cast<int>(b)] = 1;
      break;
    case CollectiveKind::kGather:
      // Non-roots hold their single block at chunk 0.
      for (int r = 0; r < n; ++r)
        if (r != root) s[static_cast<std::size_t>(r)][0][r] = 1;
      break;
    case CollectiveKind::kScatter:
      for (std::size_t c = 0; c < chunks; ++c)
        s[static_cast<std::size_t>(root)][c][1000 + static_cast<int>(c)] = 1;
      break;
  }
  return state;
}

/// The collective's set-theoretic oracle over final ledgers.
void verify_state(CollectiveKind kind, int n, int root, std::size_t chunks,
                  const std::vector<Ledger>& state) {
  auto expect_full = [&](int r, std::size_t c) {
    const auto& chunk = state[static_cast<std::size_t>(r)][c];
    for (int who = 0; who < n; ++who) {
      ASSERT_TRUE(chunk.count(who) && chunk.at(who) == 1)
          << "rank " << r << " chunk " << c << " contributor " << who
          << " count " << (chunk.count(who) ? chunk.at(who) : 0);
    }
  };
  switch (kind) {
    case CollectiveKind::kAllReduce:
      for (int r = 0; r < n; ++r)
        for (std::size_t c = 0; c < chunks; ++c) expect_full(r, c);
      break;
    case CollectiveKind::kReduce:
      for (std::size_t c = 0; c < chunks; ++c) expect_full(root, c);
      break;
    case CollectiveKind::kReduceScatter:
      // Rank r owns buffer block r of the scattered reduction.
      for (int r = 0; r < n; ++r)
        expect_full(r, static_cast<std::size_t>(r));
      break;
    case CollectiveKind::kBroadcast:
      for (int r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < chunks; ++c) {
          const auto& chunk = state[static_cast<std::size_t>(r)][c];
          ASSERT_EQ(chunk.size(), 1u) << "rank " << r << " chunk " << c;
          ASSERT_EQ(chunk.count(root), 1u) << "rank " << r << " chunk " << c;
          ASSERT_EQ(chunk.at(root), 1) << "rank " << r << " chunk " << c;
        }
      }
      break;
    case CollectiveKind::kAllGather:
      for (int r = 0; r < n; ++r) {
        for (std::size_t b = 0; b < chunks; ++b) {
          const auto& chunk = state[static_cast<std::size_t>(r)][b];
          ASSERT_EQ(chunk.size(), 1u) << "rank " << r << " block " << b;
          ASSERT_EQ(chunk.count(static_cast<int>(b)), 1u)
              << "rank " << r << " block " << b;
        }
      }
      break;
    case CollectiveKind::kAllToAll:
      // Block q of rank r ends as block r of rank q (own block stays local).
      for (int r = 0; r < n; ++r) {
        for (int q = 0; q < n; ++q) {
          if (q == r) continue;
          const auto& chunk =
              state[static_cast<std::size_t>(r)][static_cast<std::size_t>(q)];
          ASSERT_EQ(chunk.size(), 1u) << "rank " << r << " block " << q;
          ASSERT_EQ(chunk.count(q * 1000 + r), 1u)
              << "rank " << r << " block " << q;
        }
      }
      break;
    case CollectiveKind::kGather:
      for (int q = 0; q < n; ++q) {
        if (q == root) continue;
        const auto& chunk =
            state[static_cast<std::size_t>(root)][static_cast<std::size_t>(q)];
        ASSERT_EQ(chunk.size(), 1u) << "block " << q;
        ASSERT_EQ(chunk.count(q), 1u) << "block " << q;
      }
      break;
    case CollectiveKind::kScatter:
      for (int q = 0; q < n; ++q) {
        if (q == root) continue;
        const auto& chunk = state[static_cast<std::size_t>(q)][0];
        ASSERT_EQ(chunk.size(), 1u) << "rank " << q;
        ASSERT_EQ(chunk.count(1000 + q), 1u) << "rank " << q;
      }
      break;
  }
}

bool is_rooted(CollectiveKind kind) {
  return kind == CollectiveKind::kBroadcast || kind == CollectiveKind::kReduce ||
         kind == CollectiveKind::kGather || kind == CollectiveKind::kScatter;
}

bool is_fixed_shape(CollectiveKind kind) {
  return kind == CollectiveKind::kAllToAll || kind == CollectiveKind::kGather ||
         kind == CollectiveKind::kScatter;
}

/// A non-trivial ring order (position != rank) that is still a permutation
/// for every n: rotate the identity, then reverse it.
RingOrder scrambled_order(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = (i + 1) % n;
  std::reverse(v.begin(), v.end());
  return RingOrder(std::move(v));
}

/// The roots the sweep and the digest run a kind at.
std::set<int> roots_for(CollectiveKind kind, int n) {
  return is_rooted(kind) ? std::set<int>{0, n / 2, n - 1} : std::set<int>{0};
}

/// Tree pipeline granularities the sweep and the digest run.
constexpr std::size_t kTreeChunks[] = {1, 3, 8};

const CollectiveKind kAllKinds[] = {
    CollectiveKind::kAllReduce,     CollectiveKind::kAllGather,
    CollectiveKind::kReduceScatter, CollectiveKind::kBroadcast,
    CollectiveKind::kReduce,        CollectiveKind::kAllToAll,
    CollectiveKind::kGather,        CollectiveKind::kScatter};

/// Calls `fn(algo, order, root, tree_chunks)` for every case of `kind` the
/// sweep and the digest cover: each selectable algorithm x nranks 2..17 x
/// {identity, scrambled} x roots_for x kTreeChunks. Stops at the first
/// fatal test failure.
template <class Fn>
void for_each_case(CollectiveKind kind, Fn&& fn) {
  for (const Algorithm algo : coll::selectable_algorithms(kind)) {
    for (int n = 2; n <= 17; ++n) {
      for (const RingOrder& order : {RingOrder::identity(n), scrambled_order(n)}) {
        for (const int root : roots_for(kind, n)) {
          for (const std::size_t kk : kTreeChunks) {
            fn(algo, order, root, kk);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// --- correctness sweep: every kind x every selectable algorithm ------------------

/// One sweep case: compile every rank, check the plan-level invariants and
/// edge coverage, then execute over ledgers against the oracle.
void check_case(CollectiveKind kind, Algorithm algo, const RingOrder& order,
                int root, std::size_t tree_chunks) {
  const int n = static_cast<int>(order.size());
  SCOPED_TRACE(::testing::Message()
               << coll::to_string(kind) << " algo " << coll::algorithm_name(algo)
               << " n " << n << " root " << root << " pos0 " << order.rank_at(0)
               << " tree chunks " << tree_chunks);
  const auto compiled = compile_all(kind, algo, order, root, tree_chunks);
  // One plan shape per communicator: every rank agrees on chunks.
  const std::size_t chunks = compiled[0].num_chunks;
  // Flow assignment advertises the algorithm's steady-state edge superset
  // (the root-0 AllReduce trees). Rooted tree collectives at other roots —
  // and the DBT mirror broadcast — use rotated trees whose edges
  // deliberately ride ECMP, so coverage is only asserted where the contract
  // promises it.
  const bool tree_like =
      algo == Algorithm::kTree || algo == Algorithm::kDoubleBinaryTree;
  const bool coverage_checked =
      !is_fixed_shape(kind) &&
      !(is_rooted(kind) && tree_like &&
        (root != 0 || algo == Algorithm::kDoubleBinaryTree));
  const auto edges = coll::algorithm_edges(algo, order);
  const std::set<std::pair<int, int>> edge_set(edges.begin(), edges.end());
  for (int r = 0; r < n; ++r) {
    const ChannelSchedule& cs = compiled[static_cast<std::size_t>(r)];
    ASSERT_EQ(cs.num_chunks, chunks) << "rank " << r;
    // One recv slot per tag (the invariant build_coll_plan enforces).
    std::set<int> tags;
    for (const CommStep& st : cs.steps) {
      if (st.has_recv()) {
        ASSERT_TRUE(tags.insert(st.recv_tag).second)
            << "rank " << r << " duplicate recv tag " << st.recv_tag;
      }
      // Flow assignment must place demand for every send edge.
      if (st.has_send() && coverage_checked) {
        ASSERT_TRUE(edge_set.count({r, st.send_to}))
            << "rank " << r << " sends on unadvertised edge " << r << "->"
            << st.send_to;
      }
    }
  }
  const auto state = run_schedules(compiled,
                                   initial_state(kind, n, root, chunks),
                                   kind == CollectiveKind::kAllToAll);
  verify_state(kind, n, root, chunks, state);
}

class CompiledSweepP : public ::testing::TestWithParam<CollectiveKind> {};

TEST_P(CompiledSweepP, EveryAlgorithmMatchesOracleForRanks2To17) {
  const CollectiveKind kind = GetParam();
  for_each_case(kind, [kind](Algorithm algo, const RingOrder& order, int root,
                             std::size_t tree_chunks) {
    check_case(kind, algo, order, root, tree_chunks);
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, CompiledSweepP, ::testing::ValuesIn(kAllKinds));

/// Ring AllReduce with position 0 held by a rank other than 0: the
/// scrambled order rotated one position, which the sweep does not run.
class RingScheduleP : public ::testing::TestWithParam<int> {};

TEST_P(RingScheduleP, AllReduceCorrectUnderArbitraryRingOrder) {
  const int n = GetParam();
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  std::rotate(v.begin(), v.begin() + 1, v.end());
  std::reverse(v.begin() + 1, v.end());
  check_case(CollectiveKind::kAllReduce, Algorithm::kRing,
             RingOrder(std::move(v)), 0, 8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingScheduleP,
                         ::testing::Values(2, 3, 4, 5, 8, 16));

// --- lowering: frozen digest, ring-order independence of trees -------------------

void expect_same_schedule(const ChannelSchedule& got,
                          const ChannelSchedule& want) {
  ASSERT_EQ(got.num_chunks, want.num_chunks);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    const CommStep& a = got.steps[i];
    const CommStep& b = want.steps[i];
    ASSERT_EQ(a.index, b.index) << "step " << i;
    ASSERT_EQ(a.send_to, b.send_to) << "step " << i;
    ASSERT_EQ(a.send_chunk, b.send_chunk) << "step " << i;
    ASSERT_EQ(a.send_tag, b.send_tag) << "step " << i;
    ASSERT_EQ(a.recv_from, b.recv_from) << "step " << i;
    ASSERT_EQ(a.recv_chunk, b.recv_chunk) << "step " << i;
    ASSERT_EQ(a.recv_tag, b.recv_tag) << "step " << i;
    ASSERT_EQ(a.reduce, b.reduce) << "step " << i;
  }
}

/// 64-bit FNV-1a over a stream of integers, each folded as its eight
/// little-endian bytes.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void fold(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t u64(int v) { return static_cast<std::uint64_t>(v); }

TEST(CompilerLowering, ScheduleDigestIsUnchanged) {
  // Every field of every step, plus num_chunks, of every compiled schedule
  // over the sweep's grid, then every algorithm_edges list. The value was
  // recorded from the lowering before its emitters were last rewritten; a
  // change that moves any output must change it here, on purpose.
  Fnv1a d;
  for (const CollectiveKind kind : kAllKinds) {
    for_each_case(kind, [&d, kind](Algorithm algo, const RingOrder& order,
                                   int root, std::size_t tree_chunks) {
      for (const ChannelSchedule& cs :
           compile_all(kind, algo, order, root, tree_chunks)) {
        d.fold(cs.num_chunks);
        d.fold(cs.steps.size());
        for (const CommStep& st : cs.steps) {
          d.fold(u64(st.index));
          d.fold(u64(st.send_to));
          d.fold(st.send_chunk);
          d.fold(u64(st.send_tag));
          d.fold(u64(st.recv_from));
          d.fold(st.recv_chunk);
          d.fold(u64(st.recv_tag));
          d.fold(st.reduce ? 1u : 0u);
        }
      }
    });
  }
  for (const Algorithm algo : {Algorithm::kRing, Algorithm::kTree,
                               Algorithm::kDoubleBinaryTree,
                               Algorithm::kPairwise}) {
    for (int n = 2; n <= 17; ++n) {
      for (const RingOrder& order : {RingOrder::identity(n), scrambled_order(n)}) {
        const auto edges = coll::algorithm_edges(algo, order);
        d.fold(edges.size());
        for (const auto& [src, dst] : edges) {
          d.fold(u64(src));
          d.fold(u64(dst));
        }
      }
    }
  }
  EXPECT_EQ(d.h, 0x871dc51676b4a32dull) << std::hex << std::showbase << d.h;
}

TEST(CompilerLowering, TreeScheduleIgnoresRingOrder) {
  // Trees operate in rank space: permuting the ring order must not change
  // the emitted schedule (only the flow edges).
  const int n = 7;
  for (int rank = 0; rank < n; ++rank) {
    const auto a = compile_all(CollectiveKind::kAllReduce, Algorithm::kTree,
                               RingOrder::identity(n), 0, 4);
    const auto b = compile_all(CollectiveKind::kAllReduce, Algorithm::kTree,
                               scrambled_order(n), 0, 4);
    expect_same_schedule(a[static_cast<std::size_t>(rank)],
                         b[static_cast<std::size_t>(rank)]);
  }
}

// --- tree edge audit ---------------------------------------------------------------

TEST(TreeEdgesAudit, AdvertisedEdgesMatchSchedulesForRanks2To64) {
  // Flow assignment places demand exactly where the tree AllReduces send,
  // plus the ring floor the fallback kinds run on: no phantom edge, and no
  // send edge left to ECMP.
  for (const Algorithm algo : {Algorithm::kTree, Algorithm::kDoubleBinaryTree}) {
    for (int n = 2; n <= 64; ++n) {
      SCOPED_TRACE(::testing::Message() << coll::algorithm_name(algo) << " n "
                                        << n);
      const RingOrder id = RingOrder::identity(n);
      std::set<std::pair<int, int>> expected;
      for (int p = 0; p < n; ++p) expected.insert({p, (p + 1) % n});
      const auto compiled =
          compile_all(CollectiveKind::kAllReduce, algo, id, 0, 2);
      for (int rank = 0; rank < n; ++rank) {
        for (const CommStep& st : compiled[static_cast<std::size_t>(rank)].steps) {
          if (st.has_send()) expected.insert({rank, st.send_to});
        }
      }
      const auto advertised = coll::algorithm_edges(algo, id);
      const std::set<std::pair<int, int>> adv_set(advertised.begin(),
                                                  advertised.end());
      ASSERT_EQ(adv_set.size(), advertised.size()) << "duplicate edges";
      ASSERT_EQ(adv_set, expected);
    }
  }
}

// --- algorithm-choice pass -------------------------------------------------------

TEST(AlgorithmChoice, TreeWinsSmallAllReduceRingWinsLarge) {
  const coll::CostParams p;  // defaults: alpha 20us, beta 8e-11 s/B
  EXPECT_EQ(coll::choose_algorithm(CollectiveKind::kAllReduce, 8, 4 * 1024, p),
            Algorithm::kTree);
  EXPECT_EQ(coll::choose_algorithm(CollectiveKind::kAllReduce, 8,
                                   Bytes{256} << 20, p),
            Algorithm::kRing);
  // The measured win the selection claims: at the small point the tree's
  // modelled time must strictly beat the ring's.
  EXPECT_LT(coll::algorithm_cost(Algorithm::kTree, CollectiveKind::kAllReduce,
                                 8, 4 * 1024, p),
            coll::algorithm_cost(Algorithm::kRing, CollectiveKind::kAllReduce,
                                 8, 4 * 1024, p));
  // One crossover: once the ring wins, larger payloads never flip back.
  bool ring_seen = false;
  for (Bytes b = 1024; b <= (Bytes{1} << 30); b *= 2) {
    const Algorithm a =
        coll::choose_algorithm(CollectiveKind::kAllReduce, 8, b, p);
    if (a == Algorithm::kRing) ring_seen = true;
    if (ring_seen) {
      EXPECT_EQ(a, Algorithm::kRing) << "bytes " << b;
    }
  }
  // AllGather has no latency-optimal variant in the search space: ring always.
  for (Bytes b : {Bytes{1024}, Bytes{1} << 20, Bytes{1} << 28}) {
    EXPECT_EQ(coll::choose_algorithm(CollectiveKind::kAllGather, 8, b, p),
              Algorithm::kRing);
  }
}

TEST(AlgorithmChoice, SearchSpacePerKind) {
  using K = CollectiveKind;
  auto algos = [](K k) { return coll::selectable_algorithms(k); };
  EXPECT_EQ(algos(K::kAllReduce).size(), 4u);
  EXPECT_EQ(algos(K::kBroadcast).size(), 4u);
  EXPECT_EQ(algos(K::kReduce).size(), 3u);
  EXPECT_EQ(algos(K::kAllGather),
            (std::vector<Algorithm>{Algorithm::kRing, Algorithm::kPairwise}));
  EXPECT_EQ(algos(K::kReduceScatter),
            (std::vector<Algorithm>{Algorithm::kRing, Algorithm::kPairwise}));
  EXPECT_EQ(algos(K::kAllToAll), (std::vector<Algorithm>{Algorithm::kRing}));
  EXPECT_EQ(algos(K::kGather), (std::vector<Algorithm>{Algorithm::kRing}));
  EXPECT_EQ(algos(K::kScatter), (std::vector<Algorithm>{Algorithm::kRing}));
  // Every selectable algorithm must be in first position exactly when it is
  // the default (ties break to kRing).
  for (const K k : {K::kAllReduce, K::kAllGather, K::kBroadcast, K::kReduce}) {
    EXPECT_EQ(algos(k).front(), Algorithm::kRing);
  }
}

// --- end-to-end through the MCCS service -----------------------------------------

svc::CommStrategy algo_strategy(const std::vector<GpuId>& gpus,
                                const cluster::Cluster& cl, Algorithm algo,
                                std::size_t chunks) {
  svc::CommStrategy s = svc::nccl_default_strategy(gpus, cl);
  s.algorithm = algo;
  s.tree_pipeline_chunks = chunks;
  return s;
}

struct ServiceCase {
  Algorithm algo;
  int n;
};

class CompiledServiceP : public ::testing::TestWithParam<ServiceCase> {};

TEST_P(CompiledServiceP, AllReduceNumericallyCorrect) {
  const auto [algo, n] = GetParam();
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric, algo = algo](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(), algo, 4);
  });
  AppId app{1};
  std::vector<GpuId> gpus;
  for (int r = 0; r < n; ++r)
    gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 999;  // not divisible by chunks or channels
  std::vector<gpu::DevicePtr> buf(gpus.size());
  std::vector<float> expected(count, 0.0f);
  for (int r = 0; r < n; ++r) {
    buf[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[static_cast<std::size_t>(r)], count, r);
    auto s = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_reduce(comm, buf[static_cast<std::size_t>(r)],
                        buf[static_cast<std::size_t>(r)], count,
                        coll::DataType::kFloat32, coll::ReduceOp::kSum,
                        *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], expected[i]) << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CompiledServiceP,
    ::testing::Values(ServiceCase{Algorithm::kDoubleBinaryTree, 2},
                      ServiceCase{Algorithm::kDoubleBinaryTree, 3},
                      ServiceCase{Algorithm::kDoubleBinaryTree, 5},
                      ServiceCase{Algorithm::kDoubleBinaryTree, 8},
                      ServiceCase{Algorithm::kPairwise, 2},
                      ServiceCase{Algorithm::kPairwise, 3},
                      ServiceCase{Algorithm::kPairwise, 5},
                      ServiceCase{Algorithm::kPairwise, 8}));

TEST(CompiledService, DbtBroadcastFromNonZeroRoot) {
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(),
                         Algorithm::kDoubleBinaryTree, 3);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6},
                                GpuId{7}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 501;
  const int root = 3;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[r], count, static_cast<int>(r));
  }
  std::vector<float> root_data;
  {
    auto s = fabric.gpus().typed<float>(buf[root], count);
    root_data.assign(s.begin(), s.end());
  }
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->broadcast(comm, buf[r], buf[r], count,
                             coll::DataType::kFloat32, root, *ranks[r].stream,
                             [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], root_data[i]) << "rank " << r << " elem " << i;
    }
  }
}

TEST(CompiledService, PairwiseRootedAndScatteredKinds) {
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(), Algorithm::kPairwise, 4);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const int n = static_cast<int>(gpus.size());
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 96;

  // Reduce to a non-zero root (star reduce).
  std::vector<gpu::DevicePtr> rbuf(gpus.size()), rout(gpus.size());
  std::vector<float> rsum(count, 0.0f);
  for (int r = 0; r < n; ++r) {
    rbuf[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    rout[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, rbuf[static_cast<std::size_t>(r)], count, r);
    auto s = fabric.gpus().typed<float>(rbuf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) rsum[i] += s[i];
  }
  const int root = 2;
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->reduce(comm, rbuf[static_cast<std::size_t>(r)],
                    rout[static_cast<std::size_t>(r)], count,
                    coll::DataType::kFloat32, coll::ReduceOp::kSum, root,
                    *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  {
    auto out = fabric.gpus().typed<float>(rout[root], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], rsum[i]) << "elem " << i;
    }
  }

  // ReduceScatter then AllGather over the pairwise mesh round-trips.
  const std::size_t per = 64;
  std::vector<gpu::DevicePtr> send(gpus.size()), part(gpus.size()),
      full(gpus.size());
  for (int r = 0; r < n; ++r) {
    send[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)]
                                            .shim->alloc(static_cast<std::size_t>(n) *
                                                         per * sizeof(float));
    part[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(per * sizeof(float));
    full[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)]
                                            .shim->alloc(static_cast<std::size_t>(n) *
                                                         per * sizeof(float));
    test::fill_pattern<float>(fabric, send[static_cast<std::size_t>(r)],
                              static_cast<std::size_t>(n) * per, 100 + r);
  }
  std::vector<std::vector<float>> expected_parts(
      static_cast<std::size_t>(n), std::vector<float>(per, 0.0f));
  for (int b = 0; b < n; ++b) {
    for (int r = 0; r < n; ++r) {
      auto s = fabric.gpus().typed<float>(send[static_cast<std::size_t>(r)],
                                          static_cast<std::size_t>(n) * per);
      for (std::size_t i = 0; i < per; ++i) {
        expected_parts[static_cast<std::size_t>(b)][i] +=
            s[static_cast<std::size_t>(b) * per + i];
      }
    }
  }
  remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->reduce_scatter(comm, send[static_cast<std::size_t>(r)],
                            part[static_cast<std::size_t>(r)], per,
                            coll::DataType::kFloat32, coll::ReduceOp::kSum,
                            *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(part[static_cast<std::size_t>(r)], per);
    for (std::size_t i = 0; i < per; ++i) {
      ASSERT_FLOAT_EQ(out[i], expected_parts[static_cast<std::size_t>(r)][i])
          << "rank " << r << " elem " << i;
    }
  }
  remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_gather(comm, part[static_cast<std::size_t>(r)],
                        full[static_cast<std::size_t>(r)], per,
                        coll::DataType::kFloat32, *rk.stream,
                        [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(full[static_cast<std::size_t>(r)],
                                          static_cast<std::size_t>(n) * per);
    for (int b = 0; b < n; ++b) {
      for (std::size_t i = 0; i < per; ++i) {
        ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(b) * per + i],
                        expected_parts[static_cast<std::size_t>(b)][i])
            << "rank " << r << " block " << b << " elem " << i;
      }
    }
  }
}

TEST(CompiledService, SeventeenRankAllReduce) {
  // A communicator larger than any single host, on a fabric with 18 GPUs:
  // both compiler-only algorithms must survive a prime, >16 rank count.
  cluster::SpineLeafSpec spec;
  spec.num_spines = 2;
  spec.num_leaves = 3;
  spec.hosts_per_leaf = 2;
  spec.gpus_per_host = 3;
  spec.nics_per_host = 3;
  for (const Algorithm algo :
       {Algorithm::kDoubleBinaryTree, Algorithm::kPairwise}) {
    svc::Fabric fabric{cluster::make_spine_leaf(spec)};
    fabric.set_strategy_provider([&fabric, algo](const svc::CommInfo& info) {
      return algo_strategy(info.gpus, fabric.cluster(), algo, 4);
    });
    AppId app{1};
    std::vector<GpuId> gpus;
    for (int r = 0; r < 17; ++r)
      gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
    const CommId comm = test::create_comm(fabric, app, gpus);
    auto ranks = test::make_ranks(fabric, app, gpus);
    const std::size_t count = 257;
    std::vector<gpu::DevicePtr> buf(gpus.size());
    std::vector<float> expected(count, 0.0f);
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      buf[r] = ranks[r].shim->alloc(count * sizeof(float));
      test::fill_pattern<float>(fabric, buf[r], count, static_cast<int>(r));
      auto s = fabric.gpus().typed<float>(buf[r], count);
      for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
    }
    int remaining = static_cast<int>(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
    ASSERT_TRUE(test::await(fabric, remaining));
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      auto out = fabric.gpus().typed<float>(buf[r], count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_FLOAT_EQ(out[i], expected[i])
            << coll::algorithm_name(algo) << " rank " << r << " elem " << i;
      }
    }
  }
}

TEST(CompiledService, SingleRankShortCircuits) {
  // nranks == 1 never reaches the compiler: the collective is a local copy.
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(), Algorithm::kPairwise, 4);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{3}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 64;
  auto send = ranks[0].shim->alloc(count * sizeof(float));
  auto recv = ranks[0].shim->alloc(count * sizeof(float));
  test::fill_pattern<float>(fabric, send, count, 9);
  int remaining = 1;
  ranks[0].shim->all_reduce(comm, send, recv, count, coll::DataType::kFloat32,
                            coll::ReduceOp::kSum, *ranks[0].stream,
                            [&remaining](Time) { --remaining; });
  ASSERT_TRUE(test::await(fabric, remaining));
  auto in = fabric.gpus().typed<float>(send, count);
  auto out = fabric.gpus().typed<float>(recv, count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], in[i]);
}

}  // namespace
}  // namespace mccs
