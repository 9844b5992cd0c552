#include "netsim/routing.h"

#include <algorithm>
#include <limits>

namespace mccs::net {
namespace {

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();

}  // namespace

PathSet Routing::paths(NodeId src, NodeId dst) const {
  MCCS_EXPECTS(src != dst);
  const auto k = key(src, dst);
  auto it = cache_.find(k);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(k, resolve(src, dst)).first->second;
}

LinkId* Routing::allocate(std::size_t n) const {
  if (arena_.empty() || arena_used_ + n > kArenaBlockLinks) {
    arena_.push_back(std::make_unique<LinkId[]>(std::max(n, kArenaBlockLinks)));
    arena_used_ = 0;
  }
  LinkId* out = arena_.back().get() + arena_used_;
  arena_used_ += n;
  return out;
}

// All shortest paths via bidirectional layered BFS that records the
// shortest-path DAG, then a DFS over the recorded edges.
//
// Forward layers grow from src (over out-links) and backward layers from dst
// (over in-links), always expanding the side whose frontier has fewer links
// to scan (ties go forward), until the layers account for the full shortest
// distance D (first meet with F + R >= D). Per-pair cost is therefore
// proportional to the two meeting frontiers — on a 32k-endpoint Clos a few
// hundred links — instead of one full-graph BFS (~100k links).
//
// Distance labels are exact under the host-transit rule (hosts forward only
// as endpoints): an intermediate host is never labelled, so neither side
// expands one and no meet can certify a walk that transits it. For the
// optimal path P this loses nothing: P's interior nodes are switches, and
// P[i] has fdist exactly i and rdist exactly D-i (a smaller label would
// compose into a shorter valid path), so P is detected at P[F] the moment
// both sides cover it.
//
// While scanning, each side records the DAG edges it crosses, chained per
// source node: forward u->v with fdist(v) = fdist(u) + 1, backward u->v with
// rdist(v) = rdist(u) - 1. A node on a shortest path at depth d has rdist
// D-d when d >= D-R and no rdist otherwise, so the DFS walks backward edges
// at depths d >= D-R — keeping a successor only if its fdist equals its
// depth while that depth is still <= F — and forward edges below, keeping a
// successor only if its rdist equals D minus its depth in the suffix region
// (depth >= D-R). F + R >= D guarantees every depth is covered by one side,
// so every branch that survives into the suffix region reaches dst at depth
// exactly D; dead ends are confined to the (small) prefix region.
PathSet Routing::resolve(NodeId src, NodeId dst) const {
  Scratch& s = scratch_;
  const std::size_t n = topo_->node_count();
  for (Side* side : {&s.fwd, &s.rev}) {
    side->label.resize(n);
    side->queue.clear();
    if (++side->epoch == 0) {  // wrapped: no stale label may read as current
      std::fill(side->label.begin(), side->label.end(), Label{});
      side->epoch = 1;
    }
  }
  s.edges.clear();
  const auto dist = [](const Side& side, NodeId v) {
    const Label& l = side.label[v.get()];
    return l.epoch == side.epoch ? l.dist : kUnreached;
  };
  const auto mark = [](Side& side, NodeId v, std::uint32_t d) {
    side.label[v.get()] = Label{side.epoch, d, kNoEdge, kNoEdge};
  };
  const auto record = [&s](Side& side, NodeId from, LinkId link, NodeId to) {
    const auto e = static_cast<std::uint32_t>(s.edges.size());
    s.edges.push_back(Edge{link, to, kNoEdge});
    Label& l = side.label[from.get()];
    if (l.first == kNoEdge) {
      l.first = e;
    } else {
      s.edges[l.last].next = e;
    }
    l.last = e;
  };
  const auto is_host = [this](NodeId v) {
    return topo_->node(v).kind == NodeKind::kHost;
  };

  mark(s.fwd, src, 0);
  s.fwd.queue.push_back(src);
  mark(s.rev, dst, 0);
  s.rev.queue.push_back(dst);

  std::uint32_t F = 0;  // completed forward depth
  std::uint32_t R = 0;  // completed backward depth
  std::size_t fwd_lo = 0, fwd_hi = 1;  // current layer within fwd.queue
  std::size_t rev_lo = 0, rev_hi = 1;
  std::size_t fwd_work = topo_->out_links(src).size();  // links the layer scans
  std::size_t rev_work = topo_->in_links(dst).size();
  std::uint32_t D = kUnreached;

  while (D > F + R || D == kUnreached) {
    const bool fwd_open = fwd_lo < fwd_hi;
    const bool rev_open = rev_lo < rev_hi;
    if (!fwd_open && !rev_open) break;
    if (!rev_open || (fwd_open && fwd_work <= rev_work)) {
      fwd_work = 0;
      for (std::size_t i = fwd_lo; i < fwd_hi; ++i) {
        const NodeId u = s.fwd.queue[i];
        for (LinkId lid : topo_->out_links(u)) {
          const NodeId v = topo_->link(lid).dst;
          const std::uint32_t fv = dist(s.fwd, v);
          if (fv == kUnreached) {
            if (v != dst) {
              if (is_host(v)) continue;  // a host is a hop only as an endpoint
              s.fwd.queue.push_back(v);
              fwd_work += topo_->out_links(v).size();
            }
            mark(s.fwd, v, F + 1);
            const std::uint32_t rv = dist(s.rev, v);
            if (rv != kUnreached) D = std::min(D, F + 1 + rv);
          } else if (fv != F + 1) {
            continue;
          }
          record(s.fwd, u, lid, v);
        }
      }
      fwd_lo = fwd_hi;
      fwd_hi = s.fwd.queue.size();
      ++F;
    } else {
      rev_work = 0;
      for (std::size_t i = rev_lo; i < rev_hi; ++i) {
        const NodeId w = s.rev.queue[i];
        for (LinkId lid : topo_->in_links(w)) {
          const NodeId v = topo_->link(lid).src;
          const std::uint32_t rv = dist(s.rev, v);
          if (rv == kUnreached) {
            if (v != src) {
              if (is_host(v)) continue;
              s.rev.queue.push_back(v);
              rev_work += topo_->in_links(v).size();
            }
            mark(s.rev, v, R + 1);
            const std::uint32_t fv = dist(s.fwd, v);
            if (fv != kUnreached) D = std::min(D, fv + R + 1);
          } else if (rv != R + 1) {
            continue;
          }
          record(s.rev, v, lid, w);
        }
      }
      rev_lo = rev_hi;
      rev_hi = s.rev.queue.size();
      ++R;
    }
  }
  MCCS_CHECK(D != kUnreached, "destination unreachable");

  // Iterative DFS over the recorded edges; stack[d] is the next edge to try
  // out of the depth-d node.
  const auto head = [&](NodeId v, std::uint32_t d) {
    return (d + R >= D ? s.rev : s.fwd).label[v.get()].first;
  };
  s.prefix.resize(D);
  s.found.clear();
  s.stack.assign(1, head(src, 0));
  while (!s.stack.empty()) {
    const auto d = static_cast<std::uint32_t>(s.stack.size());  // successor depth
    std::uint32_t& next = s.stack.back();
    if (next == kNoEdge) {
      s.stack.pop_back();
      continue;
    }
    const Edge e = s.edges[next];
    next = e.next;
    const bool backward = d - 1 + R >= D;  // the edge came from rev's chain
    if (backward ? d <= F && dist(s.fwd, e.to) != d
                 : d + R >= D && dist(s.rev, e.to) != D - d) {
      continue;
    }
    s.prefix[d - 1] = e.link;
    if (e.to == dst) {
      s.found.insert(s.found.end(), s.prefix.begin(), s.prefix.end());
    } else {
      s.stack.push_back(head(e.to, d));
    }
  }
  const std::size_t count = s.found.size() / D;
  MCCS_ENSURES(count > 0);

  // Deterministic order: lexicographic by link ids, so the meaning of a
  // RouteId never depends on the order the BFS recorded edges in.
  const auto row = [&](std::uint32_t i) {
    return s.found.data() + std::size_t{i} * D;
  };
  const auto less = [&](std::uint32_t a, std::uint32_t b) {
    return std::lexicographical_compare(row(a), row(a) + D, row(b), row(b) + D);
  };
  s.order.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) s.order[i] = i;
  if (!std::is_sorted(s.order.begin(), s.order.end(), less)) {
    std::sort(s.order.begin(), s.order.end(), less);
  }
  LinkId* out = allocate(s.found.size());
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(row(s.order[i]), row(s.order[i]) + D, out + i * D);
  }
  return PathSet{out, count, D};
}

}  // namespace mccs::net
