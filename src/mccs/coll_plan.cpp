#include "mccs/coll_plan.h"

#include <algorithm>
#include <utility>

#include "collectives/compiler.h"
#include "mccs/proxy_engine.h"
#include "mccs/strategy.h"

namespace mccs::svc {
namespace {

// Byte range of (buffer_chunk, channel) within the logical work buffer.
// Blocks: AllGather/ReduceScatter have fixed per-rank blocks of `count`
// elements (num_chunks == nranks); AllReduce/Broadcast partition `count`
// elements into num_chunks near-equal pieces (rings use nranks chunks,
// trees their pipeline granularity). Each channel owns a stripe of every
// block.
PlanByteRange chunk_byte_range(coll::CollectiveKind kind, std::size_t count,
                               std::size_t esize, std::size_t num_chunks,
                               int num_channels, int channel,
                               std::size_t buffer_chunk) {
  std::size_t block_begin = 0;
  std::size_t block_count = 0;
  switch (kind) {
    case coll::CollectiveKind::kAllReduce:
    case coll::CollectiveKind::kBroadcast:
    case coll::CollectiveKind::kReduce: {
      const auto cr = coll::chunk_range(count, num_chunks, buffer_chunk);
      block_begin = cr.begin_elem;
      block_count = cr.count_elem;
      break;
    }
    case coll::CollectiveKind::kAllGather:
    case coll::CollectiveKind::kReduceScatter:
    case coll::CollectiveKind::kAllToAll:
    case coll::CollectiveKind::kGather:
    case coll::CollectiveKind::kScatter: {
      block_begin = buffer_chunk * count;
      block_count = count;
      break;
    }
  }
  const auto sub = coll::chunk_range(block_count,
                                     static_cast<std::size_t>(num_channels),
                                     static_cast<std::size_t>(channel));
  return PlanByteRange{(block_begin + sub.begin_elem) * esize,
                       sub.count_elem * esize};
}

}  // namespace

std::shared_ptr<const CollPlan> build_coll_plan(
    const CommSetup& setup, const CommStrategy& strategy,
    coll::CollectiveKind kind, std::size_t count, coll::DataType dtype,
    int root) {
  const CommInfo& info = *setup.info;
  const int n = info.nranks;
  const int rank = setup.rank;
  const int num_channels = strategy.num_channels();
  const std::size_t esize = coll::dtype_size(dtype);
  MCCS_EXPECTS(n >= 2);
  MCCS_EXPECTS(num_channels >= 1);

  auto plan = std::make_shared<CollPlan>();
  plan->kind = kind;
  plan->count = count;
  plan->dtype = dtype;
  plan->root = root;
  plan->channels.resize(static_cast<std::size_t>(num_channels));

  // Byte range of every buffer chunk within the current channel's stripe.
  std::vector<PlanByteRange> chunk_ranges;
  for (int c = 0; c < num_channels; ++c) {
    CollPlan::Channel& pc = plan->channels[static_cast<std::size_t>(c)];
    coll::CompileInput in;
    in.kind = kind;
    in.algorithm = strategy.algorithm;
    in.nranks = n;
    in.rank = rank;
    in.root = root;
    in.order = &strategy.channel_orders[static_cast<std::size_t>(c)];
    in.tree_chunks = strategy.tree_pipeline_chunks;
    const coll::ChannelSchedule sched = coll::compile_collective(in);
    plan->num_chunks = sched.num_chunks;

    chunk_ranges.clear();
    for (std::size_t chunk = 0; chunk < sched.num_chunks; ++chunk) {
      chunk_ranges.push_back(chunk_byte_range(
          kind, count, esize, sched.num_chunks, num_channels, c, chunk));
    }

    pc.steps.reserve(sched.steps.size());
    for (const coll::CommStep& step : sched.steps) {
      CollPlan::Step ps;
      if (step.has_send()) {
        ps.send_to = step.send_to;
        ps.send_tag = step.send_tag;
        ps.send_range = chunk_ranges[step.send_chunk];
        ps.send_gpu = info.gpus[static_cast<std::size_t>(step.send_to)];
      }
      if (step.has_recv()) {
        MCCS_EXPECTS(step.recv_tag >= 0);
        const auto tag = static_cast<std::size_t>(step.recv_tag);
        if (tag >= pc.tag_to_slot.size()) pc.tag_to_slot.resize(tag + 1, -1);
        MCCS_CHECK(pc.tag_to_slot[tag] < 0,
                   "duplicate recv tag within a channel schedule");
        pc.tag_to_slot[tag] = static_cast<std::int32_t>(pc.recv_slots.size());
        ps.recv_slot = pc.tag_to_slot[tag];
        CollPlan::RecvSlot slot;
        slot.tag = step.recv_tag;
        slot.reduce = step.reduce;
        slot.range = chunk_ranges[step.recv_chunk];
        pc.recv_slots.push_back(slot);
      }
      pc.steps.push_back(ps);
    }

    if (kind == coll::CollectiveKind::kReduceScatter) {
      // This rank's fully-reduced chunk (this channel's stripe) moves from
      // the scratch buffer to the user's recv buffer on channel finish. Both
      // lowerings — ring and pairwise mesh — leave it in block `rank` (the
      // ring lowering checks its position arithmetic agrees).
      pc.rs_src = chunk_ranges[static_cast<std::size_t>(rank)];
      const auto sub = coll::chunk_range(count,
                                         static_cast<std::size_t>(num_channels),
                                         static_cast<std::size_t>(c));
      pc.rs_dst = PlanByteRange{sub.begin_elem * esize, sub.count_elem * esize};
      MCCS_CHECK(pc.rs_src.len == pc.rs_dst.len,
                 "reduce-scatter stripe length mismatch");
    }
  }
  return plan;
}

std::shared_ptr<const CollPlan> CollPlanCache::acquire(
    const CommSetup& setup,
    const std::shared_ptr<const CommStrategy>& strategy,
    coll::CollectiveKind kind, std::size_t count, coll::DataType dtype,
    int root) {
  if (strategy != strategy_) {
    if (!plans_.empty()) {
      ++stats_.invalidations;
      gpu_.invalidations.increment();
    }
    plans_.clear();
    strategy_ = strategy;
  }
  const PlanKey key{kind, count, dtype, root};
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.hits;
    gpu_.hits.increment();
    return it->second;
  }
  ++stats_.misses;
  gpu_.misses.increment();
  auto plan = build_coll_plan(setup, *strategy, kind, count, dtype, root);
  plans_.emplace(key, plan);
  return plan;
}

std::shared_ptr<const CollPlan> CollPlanCache::peek(
    const std::shared_ptr<const CommStrategy>& strategy,
    coll::CollectiveKind kind, std::size_t count, coll::DataType dtype,
    int root) const {
  if (strategy != strategy_) return nullptr;
  auto it = plans_.find(PlanKey{kind, count, dtype, root});
  return it == plans_.end() ? nullptr : it->second;
}

}  // namespace mccs::svc
