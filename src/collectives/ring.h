#pragma once
// Ring orderings and ring bandwidth math. A RingOrder is the rank
// permutation a ring runs over: exactly the knob MCCS's locality-aware
// ring-configuration policy turns, so it is kept apart from the schedules
// the plan compiler (compiler.h) lowers over it. Also here: the chunk
// partition every schedule's buffer uses, and nccl-tests' bandwidth
// factors.

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "collectives/types.h"

namespace mccs::coll {

/// A ring ordering: order[p] = rank occupying ring position p.
/// Identity order (NCCL's default inter-host behaviour) is order[p] = p.
class RingOrder {
 public:
  explicit RingOrder(std::vector<int> order) : order_(std::move(order)) {
    MCCS_EXPECTS(!order_.empty());
    std::vector<bool> seen(order_.size(), false);
    for (int r : order_) {
      MCCS_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < order_.size());
      MCCS_CHECK(!seen[static_cast<std::size_t>(r)], "ring order must be a permutation");
      seen[static_cast<std::size_t>(r)] = true;
    }
    position_of_.resize(order_.size());
    for (std::size_t p = 0; p < order_.size(); ++p) {
      position_of_[static_cast<std::size_t>(order_[p])] = static_cast<int>(p);
    }
  }

  static RingOrder identity(std::size_t n) {
    std::vector<int> o(n);
    for (std::size_t i = 0; i < n; ++i) o[i] = static_cast<int>(i);
    return RingOrder(std::move(o));
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] int rank_at(int position) const {
    return order_[static_cast<std::size_t>(mod(position))];
  }
  [[nodiscard]] int position_of(int rank) const {
    MCCS_EXPECTS(rank >= 0 && static_cast<std::size_t>(rank) < order_.size());
    return position_of_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const std::vector<int>& order() const { return order_; }

  [[nodiscard]] RingOrder reversed() const {
    std::vector<int> rev(order_.rbegin(), order_.rend());
    return RingOrder(std::move(rev));
  }

  friend bool operator==(const RingOrder& a, const RingOrder& b) {
    return a.order_ == b.order_;
  }

 private:
  [[nodiscard]] int mod(int p) const {
    const int n = static_cast<int>(order_.size());
    return ((p % n) + n) % n;
  }

  std::vector<int> order_;
  std::vector<int> position_of_;
};

/// Sentinel: this step has no send (or no recv) half.
inline constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

/// Chunk boundaries: chunk i of `count` elements split n ways.
struct ChunkRange {
  std::size_t begin_elem = 0;
  std::size_t count_elem = 0;
};

inline ChunkRange chunk_range(std::size_t total_elems, std::size_t n_chunks,
                              std::size_t chunk) {
  MCCS_EXPECTS(chunk < n_chunks);
  const std::size_t b = total_elems * chunk / n_chunks;
  const std::size_t e = total_elems * (chunk + 1) / n_chunks;
  return ChunkRange{b, e - b};
}

// --- aggregate (flow-level) edge volumes ------------------------------------
// Total bytes a ring collective pushes over *each* ring edge; used by the
// large-scale simulator and the bandwidth math below.

inline double allreduce_edge_volume(int n, Bytes total_bytes) {
  MCCS_EXPECTS(n >= 2);
  return 2.0 * (n - 1) / n * static_cast<double>(total_bytes);
}

// --- nccl-tests bandwidth math ----------------------------------------------
// algbw = size / time; busbw = algbw * factor, where the factor makes the
// number comparable across collectives and participant counts
// (github.com/NVIDIA/nccl-tests/blob/master/doc/PERFORMANCE.md).

inline double bus_bandwidth_factor(CollectiveKind kind, int n) {
  MCCS_EXPECTS(n >= 2);
  switch (kind) {
    case CollectiveKind::kAllReduce: return 2.0 * (n - 1) / n;
    case CollectiveKind::kAllGather: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kReduceScatter: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kBroadcast: return 1.0;
    case CollectiveKind::kReduce: return 1.0;
    case CollectiveKind::kAllToAll: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kGather: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kScatter: return static_cast<double>(n - 1) / n;
  }
  return 1.0;
}

inline Bandwidth algorithm_bandwidth(Bytes size, Time elapsed) {
  MCCS_EXPECTS(elapsed > 0.0);
  return static_cast<double>(size) / elapsed;
}

inline Bandwidth bus_bandwidth(CollectiveKind kind, int n, Bytes size, Time elapsed) {
  return algorithm_bandwidth(size, elapsed) * bus_bandwidth_factor(kind, n);
}

}  // namespace mccs::coll
