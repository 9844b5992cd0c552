#pragma once
// Equal-cost multi-path routing over a Topology.
//
// For each (src, dst) node pair we enumerate *all* shortest paths in a
// deterministic order. A flow is mapped to one of them either by ECMP
// hashing (the cloud default the paper criticises) or by an explicit
// RouteId chosen by the provider (the source-routing / policy-based-routing
// analogue MCCS uses: the service stamps each RDMA connection's UDP source
// port and the switch maps it to a path).
//
// Scaling: a cold pair costs what its bidirectional BFS scans plus the links
// it returns. The BFS records each shortest-path DAG edge as it scans it
// (forward edges u->v with fdist(v) = fdist(u) + 1, backward edges with
// rdist(v) = rdist(u) - 1), and enumeration walks only those recorded
// edges, so no node's adjacency is scanned twice: on a 32k-endpoint Clos a
// pair costs a few hundred links, not a whole-graph BFS. The BFS labels and
// recorded edges are epoch-marked scratch reused across cache misses (no
// O(nodes) clearing per pair).
//
// One store: every path's links live once, in a chunked, stable-address
// LinkId arena owned by the Routing. The cache maps a pair to a PathSet over
// that arena and the Network's flows hold PathViews into it. A warm
// resolver's cold pair allocates only its cache entry, whatever its path
// count (plus, once per 4096 stored links, a new block, and the cache's
// occasional rehash).

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "netsim/topology.h"

namespace mccs::net {

/// A path is the ordered list of links from src to dst (an owning copy).
using Path = std::vector<LinkId>;

/// Non-owning view of a path (a contiguous run of LinkIds). Routing hands
/// out views into its path arena, which lives as long as the Routing (and so
/// as the Network that owns it); views obtained from a `Path` are only as
/// durable as that vector. Implicit construction from `Path` keeps call
/// sites symmetric.
class PathView {
 public:
  constexpr PathView() = default;
  constexpr PathView(const LinkId* data, std::size_t size)
      : data_(data), size_(static_cast<std::uint32_t>(size)) {}
  PathView(const Path& p)  // NOLINT(google-explicit-constructor)
      : PathView(p.data(), p.size()) {}

  [[nodiscard]] const LinkId* begin() const { return data_; }
  [[nodiscard]] const LinkId* end() const { return data_ + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] LinkId operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] LinkId front() const { return data_[0]; }
  [[nodiscard]] LinkId back() const { return data_[size_ - 1]; }
  /// Materialise an owning copy (for consumers that outlive the source).
  [[nodiscard]] Path to_path() const { return Path(begin(), end()); }

  friend bool operator==(PathView a, PathView b) {
    if (a.size_ != b.size_) return false;
    for (std::uint32_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  const LinkId* data_ = nullptr;
  std::uint32_t size_ = 0;
};

/// All equal-cost shortest paths of one pair, in lexicographic order of
/// their link ids: `size()` paths of one length, stored back to back in the
/// Routing's arena. Indexing and iteration yield PathViews.
class PathSet {
 public:
  class iterator {
   public:
    iterator(const LinkId* at, std::uint32_t length) : at_(at), length_(length) {}
    PathView operator*() const { return {at_, length_}; }
    iterator& operator++() {
      at_ += length_;
      return *this;
    }
    friend bool operator==(iterator a, iterator b) { return a.at_ == b.at_; }

   private:
    const LinkId* at_;
    std::uint32_t length_;
  };

  constexpr PathSet(const LinkId* links, std::size_t count, std::size_t length)
      : links_(links),
        count_(static_cast<std::uint32_t>(count)),
        length_(static_cast<std::uint32_t>(length)) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] PathView operator[](std::size_t i) const {
    return {links_ + i * length_, length_};
  }
  [[nodiscard]] iterator begin() const { return {links_, length_}; }
  [[nodiscard]] iterator end() const {
    return {links_ + std::size_t{count_} * length_, length_};
  }

 private:
  const LinkId* links_;
  std::uint32_t count_;
  std::uint32_t length_;
};

class Routing {
 public:
  explicit Routing(const Topology& topo) : topo_(&topo) {}

  /// All equal-cost shortest paths from src to dst, lexicographic order.
  /// Computed lazily and cached; the views stay valid for the Routing's
  /// lifetime. Throws if dst is unreachable.
  PathSet paths(NodeId src, NodeId dst) const;

  /// Select a path by explicit route id (modulo the path count, mirroring a
  /// switch policy table that wraps).
  PathView by_route_id(NodeId src, NodeId dst, RouteId route) const {
    const PathSet ps = paths(src, dst);
    return ps[route.get() % ps.size()];
  }

  /// Select a path by ECMP hash of a flow key.
  PathView by_ecmp(NodeId src, NodeId dst, std::uint64_t flow_key) const {
    const PathSet ps = paths(src, dst);
    return ps[ecmp_hash(flow_key) % ps.size()];
  }

  /// The hash an ECMP switch would apply (splitmix64 — uniform, deterministic).
  static std::uint64_t ecmp_hash(std::uint64_t key) {
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  static constexpr std::size_t kArenaBlockLinks = 4096;

  static std::uint64_t key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src.get()) << 32) | dst.get();
  }

  /// The cold path: BFS, enumeration, and the copy into the arena.
  PathSet resolve(NodeId src, NodeId dst) const;
  /// `n` contiguous links in the arena (a fresh block when the newest is full).
  LinkId* allocate(std::size_t n) const;

  const Topology* topo_;
  mutable std::unordered_map<std::uint64_t, PathSet> cache_;
  mutable std::vector<std::unique_ptr<LinkId[]>> arena_;
  mutable std::size_t arena_used_ = 0;  ///< links used in the newest block

  // Cold-resolution scratch, reused across misses. Routing is lazily mutable
  // like the cache itself: resolve paths on one thread.
  struct Label {  ///< one node's BFS label on one side
    std::uint32_t epoch = 0;  ///< the label is current iff it equals Side::epoch
    std::uint32_t dist = 0;
    std::uint32_t first = 0;  ///< recorded DAG edges out of the node: chain head
    std::uint32_t last = 0;   ///< and tail, indices into Scratch::edges
  };
  struct Side {  ///< forward labels from src, or backward labels from dst
    std::vector<Label> label;
    std::vector<NodeId> queue;
    std::uint32_t epoch = 0;
  };
  struct Edge {  ///< a recorded DAG edge, chained per source node
    LinkId link;
    NodeId to;
    std::uint32_t next;
  };
  struct Scratch {
    Side fwd;
    Side rev;
    std::vector<Edge> edges;
    std::vector<std::uint32_t> stack;  ///< per DFS depth: next edge to try
    std::vector<LinkId> prefix;        ///< the DFS's current path
    std::vector<LinkId> found;         ///< enumerated paths, back to back
    std::vector<std::uint32_t> order;  ///< their lexicographic order
  };
  mutable Scratch scratch_;
};

}  // namespace mccs::net
