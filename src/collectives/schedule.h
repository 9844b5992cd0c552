#pragma once
// Per-rank communication schedules: the form every collective takes once
// the plan compiler (compiler.h) has lowered it, and the only form the proxy
// engine executes (through mccs/coll_plan.h).
//
// A ChannelSchedule is an ordered list of CommSteps, each naming an optional
// send (peer rank + buffer chunk + tag) and an optional receive (tag + chunk
// + reduce/copy). Peers are ranks, not ring positions: the compiler resolves
// positions through the channel's RingOrder.
//
// Buffer partition semantics: the logical work buffer is divided into
// `num_chunks` pieces. For AllGather/ReduceScatter these are the fixed
// per-rank blocks (num_chunks == nranks); for AllReduce/Broadcast they are
// arbitrary near-equal ranges, so trees may pick a different pipeline
// granularity than rings.

#include <cstddef>
#include <vector>

#include "collectives/ring.h"

namespace mccs::coll {

struct CommStep {
  int index = 0;
  int send_to = -1;  ///< destination rank; -1 = no send half
  std::size_t send_chunk = kNoChunk;  ///< buffer chunk index
  int send_tag = -1;
  int recv_from = -1;  ///< source rank (informational; matching is by tag)
  std::size_t recv_chunk = kNoChunk;
  int recv_tag = -1;
  bool reduce = false;  ///< reduce received chunk into local (vs overwrite)

  [[nodiscard]] bool has_send() const { return send_to >= 0; }
  [[nodiscard]] bool has_recv() const { return recv_tag >= 0; }
};

struct ChannelSchedule {
  std::vector<CommStep> steps;
  std::size_t num_chunks = 0;  ///< partition granularity of the work buffer
};

}  // namespace mccs::coll
