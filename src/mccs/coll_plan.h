#pragma once
// Collective execution plans: the immutable, precomputed half of a proxy
// engine's per-collective work (§4.2 datapath fast path).
//
// In a training loop the same collective (communicator, kind, count, dtype,
// root) is launched millions of times, yet everything the proxy derives from
// those parameters — the per-channel step schedules, every step's byte
// range within the logical work buffer, the tag→receive-action tables, the
// destination GPU of every send — is invariant until the provider swaps the
// communicator's strategy. A CollPlan captures that invariant state once;
// the proxy engine's running collective then holds only cursors and arrival
// bitmaps referencing the shared plan (the GC3/HiCCL plan-once/execute-many
// structure, arXiv:2201.11840 / 2408.05962). As in GC3, a transfer names
// its own source byte range: the sender's step carries it, the message
// carries it, and the receiver checks its length against its own slot.
//
// Invalidation contract: a cache holds the plans of one strategy object.
// Each provider decision is one immutable CommStrategy shared by every rank,
// and a rank's strategy changes only when the Fig.-4 barrier finishes its
// connection update (or the unsafe ablation swaps it). CollPlanCache keeps
// the strategy its plans were compiled from and drops every entry when
// handed another, so a stale plan can never outlive the configuration it was
// compiled for.
//
// Deliberately NOT part of a plan (looked up live per send instead): the
// explicit route table and the connection ECMP key. Both are cheap, and the
// unsafe_immediate_reconfig ablation swaps the strategy while collectives
// are in flight — caching them would change that ablation's (intentionally
// broken) modelled behaviour.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "collectives/types.h"
#include "common/ids.h"
#include "common/units.h"
#include "telemetry/metrics.h"

namespace mccs::svc {

struct CommSetup;
struct CommStrategy;

/// Byte range within the logical work buffer.
struct PlanByteRange {
  Bytes offset = 0;
  Bytes len = 0;

  friend bool operator==(const PlanByteRange&, const PlanByteRange&) = default;
};

/// Everything launch-invariant about one collective shape on one rank.
struct CollPlan {
  /// One step of a channel's step machine, fully resolved: the send half
  /// carries its destination and byte range, the recv half is a dense index
  /// into the channel's receive-slot table.
  struct Step {
    int send_to = -1;             ///< destination rank; -1 = none
    int send_tag = -1;
    PlanByteRange send_range;     ///< bytes read for the send
    GpuId send_gpu{};             ///< destination rank's GPU
    std::int32_t recv_slot = -1;  ///< dense recv index; -1 = none

    [[nodiscard]] bool has_send() const { return send_to >= 0; }
    [[nodiscard]] bool has_recv() const { return recv_slot >= 0; }

    friend bool operator==(const Step&, const Step&) = default;
  };

  /// What to do with an incoming transfer, resolved from *our* schedule.
  struct RecvSlot {
    int tag = -1;
    bool reduce = false;  ///< reduce into local (vs overwrite)
    PlanByteRange range;  ///< destination byte range

    friend bool operator==(const RecvSlot&, const RecvSlot&) = default;
  };

  struct Channel {
    std::vector<Step> steps;
    std::vector<RecvSlot> recv_slots;
    /// Dense tag → recv-slot index (-1 = tag not expected). Tags are small
    /// (bounded by step/chunk counts), so a flat vector replaces the old
    /// per-launch std::map<int, RecvInfo>.
    std::vector<std::int32_t> tag_to_slot;
    /// ReduceScatter finalization: scratch range holding this rank's fully
    /// reduced stripe, and where it lands in the user's recv buffer.
    PlanByteRange rs_src;
    PlanByteRange rs_dst;

    friend bool operator==(const Channel&, const Channel&) = default;
  };

  coll::CollectiveKind kind = coll::CollectiveKind::kAllReduce;
  std::size_t count = 0;
  coll::DataType dtype = coll::DataType::kFloat32;
  int root = 0;
  std::size_t num_chunks = 0;
  std::vector<Channel> channels;

  friend bool operator==(const CollPlan&, const CollPlan&) = default;
};

/// Cache key within one strategy. `root` only matters for rooted collectives
/// but is always part of the key (callers pass 0 otherwise); the reduction
/// op never is — it affects the arithmetic applied to delivered bytes, not
/// the plan.
struct PlanKey {
  coll::CollectiveKind kind = coll::CollectiveKind::kAllReduce;
  std::size_t count = 0;
  coll::DataType dtype = coll::DataType::kFloat32;
  int root = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(k.kind));
    mix(k.count);
    mix(static_cast<std::uint64_t>(k.dtype));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.root)));
    return static_cast<std::size_t>(h);
  }
};

/// Compile one collective shape into a plan for `setup.rank` of the
/// communicator record `setup.info` under `strategy`. Pure function of its
/// arguments — the property tests rely on a rebuilt plan being structurally
/// identical to a cached one.
std::shared_ptr<const CollPlan> build_coll_plan(
    const CommSetup& setup, const CommStrategy& strategy,
    coll::CollectiveKind kind, std::size_t count, coll::DataType dtype,
    int root);

/// Per-communicator-rank plan cache for the rank's current strategy.
class CollPlanCache {
 public:
  /// This cache's own counts, for one communicator rank. They live and die
  /// with the cache; the GPU-wide totals below outlive it.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;          ///< plans built and retained
    std::uint64_t invalidations = 0;   ///< strategy changes that dropped entries
  };

  /// Counters every cache on one GPU adds into besides its own Stats. A
  /// proxy engine interns them once in the fabric's MetricsRegistry, labeled
  /// by its GPU; a standalone cache names counters of its own.
  struct GpuCounters {
    telemetry::Counter& hits;
    telemetry::Counter& misses;
    telemetry::Counter& invalidations;
  };

  explicit CollPlanCache(const GpuCounters& gpu) : gpu_(gpu) {}

  /// Return the plan for the given shape, building and retaining it on a
  /// miss. A strategy other than the cache's drops every entry first — see
  /// the invalidation contract above.
  std::shared_ptr<const CollPlan> acquire(
      const CommSetup& setup,
      const std::shared_ptr<const CommStrategy>& strategy,
      coll::CollectiveKind kind, std::size_t count, coll::DataType dtype,
      int root);

  /// The cached plan for a shape under `strategy`, or nullptr (never
  /// builds). Test hook. Another strategy's plans are never returned.
  [[nodiscard]] std::shared_ptr<const CollPlan> peek(
      const std::shared_ptr<const CommStrategy>& strategy,
      coll::CollectiveKind kind, std::size_t count, coll::DataType dtype,
      int root) const;

  [[nodiscard]] Stats stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return plans_.size(); }

 private:
  /// Held, not observed: while the cache keeps it alive, no later strategy
  /// can reuse its address.
  std::shared_ptr<const CommStrategy> strategy_;
  std::unordered_map<PlanKey, std::shared_ptr<const CollPlan>, PlanKeyHash>
      plans_;
  Stats stats_;
  GpuCounters gpu_;
};

}  // namespace mccs::svc
