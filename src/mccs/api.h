#pragma once
// Public collective-communication API types for MCCS.
//
// The shim exposes an NCCL-shaped interface (§4.1): communicators are
// created from a UniqueId rendezvous (the ncclUniqueId analogue), and each
// collective call names device buffers, an element count, a datatype, a
// reduction operator, and the application stream that orders the collective
// against the app's compute kernels.
//
// Buffer-count semantics match NCCL:
//   AllReduce      send[count]        -> recv[count]
//   AllGather      send[count]        -> recv[count * nranks]
//   ReduceScatter  send[count*nranks] -> recv[count]
//   Broadcast      send[count]@root   -> recv[count]  (in-place allowed)
//   Reduce         send[count]        -> recv[count]@root
//   AllToAll       send[count*nranks] -> recv[count*nranks] (count per peer)
//   Gather         send[count]        -> recv[count*nranks]@root
//   Scatter        send[count*nranks]@root -> recv[count]
//
// A buffer marked @root is touched only at the root. rank_buffers() below
// resolves this table for one rank; the frontend and the proxy both use it.

#include <cstdint>
#include <functional>

#include "collectives/types.h"
#include "common/ids.h"
#include "common/units.h"
#include "gpusim/memory.h"

namespace mccs::svc {

/// Rendezvous token for communicator creation (ncclUniqueId analogue).
struct UniqueId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(UniqueId a, UniqueId b) { return a.value == b.value; }
};

/// Arguments of one collective operation as issued by the application.
struct CollectiveArgs {
  coll::CollectiveKind kind = coll::CollectiveKind::kAllReduce;
  gpu::DevicePtr send;
  gpu::DevicePtr recv;
  std::size_t count = 0;  ///< elements; see header comment for per-op meaning
  coll::DataType dtype = coll::DataType::kFloat32;
  coll::ReduceOp op = coll::ReduceOp::kSum;
  int root = 0;  ///< rooted kinds only

  /// Total payload bytes moved per rank, as the paper's "data size" axis
  /// measures it (output buffer size; see §6.2).
  [[nodiscard]] Bytes output_bytes(int nranks) const {
    const Bytes e = coll::dtype_size(dtype);
    switch (kind) {
      case coll::CollectiveKind::kAllGather:
      case coll::CollectiveKind::kAllToAll:
      case coll::CollectiveKind::kGather:
      case coll::CollectiveKind::kScatter:
        return static_cast<Bytes>(count) * static_cast<Bytes>(nranks) * e;
      default:
        return static_cast<Bytes>(count) * e;
    }
  }
};

/// A buffer one rank's collective addresses: the tenant's two, or the
/// private working copy the service allocates.
enum class RankBuffer : std::uint8_t { kSend, kRecv, kScratch };

/// The table above, resolved for one rank. Extents count bytes from the
/// buffer's start; 0 means the rank never touches that buffer. The frontend
/// validates exactly `send` and `recv`; the proxy allocates `scratch` bytes,
/// lands incoming chunks in `work`, reads outgoing chunks from `read`, and
/// makes `copy` before any transfer.
struct RankBuffers {
  Bytes send = 0;
  Bytes recv = 0;
  Bytes scratch = 0;
  RankBuffer work = RankBuffer::kRecv;
  RankBuffer read = RankBuffer::kRecv;
  /// `len` bytes of send from offset `from` to offset `to` of `into`; none
  /// when `len` is 0, which includes an in-place call.
  struct Copy {
    Bytes from = 0;
    RankBuffer into = RankBuffer::kRecv;
    Bytes to = 0;
    Bytes len = 0;
  } copy;
};

/// Rank `rank`'s buffers for `args` in an `nranks` communicator: the only
/// place a collective kind maps to buffer extents.
inline RankBuffers rank_buffers(const CollectiveArgs& args, int nranks,
                                int rank) {
  const Bytes block =
      static_cast<Bytes>(args.count) * coll::dtype_size(args.dtype);
  const Bytes all = block * static_cast<Bytes>(nranks);
  const Bytes mine = block * static_cast<Bytes>(rank);
  const bool root = rank == args.root;
  RankBuffers b;
  b.copy.len = block;
  switch (args.kind) {
    case coll::CollectiveKind::kAllReduce:
      b.send = b.recv = block;
      break;
    case coll::CollectiveKind::kAllGather:
      b.send = block;
      b.recv = all;
      b.copy.to = mine;
      break;
    case coll::CollectiveKind::kReduceScatter:
      // Reduced in a private copy of send; each channel's stripe of block
      // `rank` moves to recv as the channel finishes. With one rank the
      // copy is the whole collective.
      b.send = all;
      b.recv = block;
      if (nranks > 1) {
        b.scratch = b.copy.len = all;
        b.work = b.read = b.copy.into = RankBuffer::kScratch;
      }
      break;
    case coll::CollectiveKind::kBroadcast:
      b.send = b.copy.len = root ? block : 0;
      b.recv = block;
      break;
    case coll::CollectiveKind::kReduce:
      // Partial sums pass through a non-root, whose send must stay intact.
      b.send = block;
      if (root) {
        b.recv = block;
      } else {
        b.scratch = block;
        b.work = b.read = b.copy.into = RankBuffer::kScratch;
      }
      break;
    case coll::CollectiveKind::kAllToAll:
      b.send = b.recv = all;
      b.read = RankBuffer::kSend;
      b.copy.from = b.copy.to = mine;
      break;
    case coll::CollectiveKind::kGather:
      b.send = block;
      b.recv = root ? all : 0;
      b.read = RankBuffer::kSend;
      b.copy.to = mine;
      b.copy.len = root ? block : 0;
      break;
    case coll::CollectiveKind::kScatter:
      b.send = root ? all : 0;
      b.recv = block;
      b.read = RankBuffer::kSend;
      b.copy.from = mine;
      b.copy.len = root ? block : 0;
      break;
  }
  if (b.copy.into == RankBuffer::kRecv &&
      args.send.at_offset(b.copy.from) == args.recv.at_offset(b.copy.to)) {
    b.copy.len = 0;
  }
  return b;
}

/// Completion callback: virtual time at which the collective completed.
using CompletionCallback = std::function<void(Time)>;

}  // namespace mccs::svc
