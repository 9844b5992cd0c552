#pragma once
// Simulated GPU devices and the runtime that owns them.
//
// This is the CUDA substitute required by the reproduction: devices expose
// memory allocation with IPC handles, in-order streams, shareable events and
// timed kernels — the exact primitives §4.1 of the paper builds on. Timing
// is virtual (driven by the shared EventLoop); data is real bytes.

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "gpusim/event.h"
#include "gpusim/memory.h"
#include "gpusim/stream.h"
#include "sim/event_loop.h"

namespace mccs::gpu {

struct DeviceConfig {
  /// Host<->device copy bandwidth (PCIe-class).
  Bandwidth copy_bandwidth = gibytes_per_sec(12.0);
  /// Bandwidth of intra-host GPU<->GPU transfers through shared host memory
  /// (the paper's prototype uses host-shared-memory channels intra-host).
  Bandwidth intra_host_bandwidth = gibytes_per_sec(20.0);

  /// When false, allocations are timing-only: they track sizes and handles
  /// but back no bytes (large-message benches; tests keep real data).
  bool materialize_memory = true;
};

class Gpu {
 public:
  Gpu(sim::EventLoop& loop, GpuId id, DeviceConfig config)
      : loop_(&loop), id_(id), config_(config) {}

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  [[nodiscard]] GpuId id() const { return id_; }
  [[nodiscard]] const DeviceConfig& config() const { return config_; }

  // --- memory ---------------------------------------------------------------

  /// Allocate `size` bytes of device memory (zero-initialised).
  DevicePtr allocate(Bytes size) {
    MCCS_EXPECTS(size > 0);
    const MemId id{next_mem_id_++};
    auto alloc = std::make_unique<detail::Allocation>();
    alloc->size = size;
    alloc->materialized = config_.materialize_memory;
    if (alloc->materialized) alloc->data.resize(size);
    allocations_.emplace(id.get(), std::move(alloc));
    return DevicePtr{id_, id, 0};
  }

  /// Drop one reference; memory is released when the count reaches zero.
  void release(MemId mem) {
    auto it = allocations_.find(mem.get());
    MCCS_EXPECTS(it != allocations_.end());
    if (--it->second->refcount == 0) allocations_.erase(it);
  }

  /// Export an IPC handle for an allocation.
  [[nodiscard]] MemHandle export_handle(MemId mem) const {
    MCCS_EXPECTS(allocations_.count(mem.get()) > 0);
    return MemHandle{id_, mem};
  }

  /// Open an IPC handle (adds a reference); returns a device pointer to the
  /// base of the allocation.
  DevicePtr open_handle(MemHandle handle) {
    MCCS_EXPECTS(handle.gpu == id_);
    auto it = allocations_.find(handle.mem.get());
    MCCS_EXPECTS(it != allocations_.end());
    ++it->second->refcount;
    return DevicePtr{id_, handle.mem, 0};
  }

  [[nodiscard]] bool mem_valid(MemId mem) const {
    return allocations_.count(mem.get()) > 0;
  }

  [[nodiscard]] Bytes mem_size(MemId mem) const {
    auto it = allocations_.find(mem.get());
    MCCS_EXPECTS(it != allocations_.end());
    return it->second->size;
  }

  /// Raw bytes of an allocation from `ptr.offset` for `len` bytes.
  /// Bounds-checked — the MCCS service relies on this to validate tenant
  /// buffers before operating on them.
  std::span<std::byte> bytes(DevicePtr ptr, Bytes len) {
    MCCS_EXPECTS(ptr.gpu == id_);
    auto it = allocations_.find(ptr.mem.get());
    MCCS_EXPECTS(it != allocations_.end());
    MCCS_EXPECTS(it->second->materialized);
    auto& data = it->second->data;
    MCCS_EXPECTS(ptr.offset + len <= data.size());
    return std::span<std::byte>(data.data() + ptr.offset, len);
  }

  // --- streams & events -------------------------------------------------------

  Stream& create_stream() {
    const StreamId sid{next_stream_id_++};
    auto stream = std::make_unique<Stream>(*loop_, id_, sid);
    Stream& ref = *stream;
    streams_.emplace(sid.get(), std::move(stream));
    return ref;
  }

  Stream& stream(StreamId sid) {
    auto it = streams_.find(sid.get());
    MCCS_EXPECTS(it != streams_.end());
    return *it->second;
  }

  /// Release a stream. An idle stream goes now. A busy one (a trailing op
  /// still draining) gets a marker appended, and is released once the
  /// marker completes, never while an op or loop event still refers to it.
  void destroy_stream(StreamId sid) {
    Stream& s = stream(sid);
    if (s.idle()) {
      streams_.erase(sid.get());
      return;
    }
    // The marker's callback runs inside the stream's own completion, so
    // the erase is deferred to a fresh loop event.
    s.enqueue_callback([this, sid] {
      loop_->schedule_after(0.0, [this, sid] { destroy_stream(sid); });
    });
  }

  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }

  std::shared_ptr<GpuEvent> create_event() {
    return std::make_shared<GpuEvent>(id_);
  }

 private:
  sim::EventLoop* loop_;
  GpuId id_;
  DeviceConfig config_;
  std::uint32_t next_mem_id_ = 0;
  std::uint32_t next_stream_id_ = 0;
  std::unordered_map<std::uint32_t, std::unique_ptr<detail::Allocation>> allocations_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Stream>> streams_;
};

/// Owns all simulated GPUs in the cluster, indexed by cluster-global GpuId.
class GpuRuntime {
 public:
  GpuRuntime(sim::EventLoop& loop, std::size_t num_gpus,
             DeviceConfig config = {}) {
    gpus_.reserve(num_gpus);
    for (std::size_t i = 0; i < num_gpus; ++i) {
      gpus_.push_back(std::make_unique<Gpu>(loop, GpuId{static_cast<std::uint32_t>(i)}, config));
    }
  }

  [[nodiscard]] std::size_t gpu_count() const { return gpus_.size(); }

  Gpu& gpu(GpuId id) {
    MCCS_EXPECTS(id.get() < gpus_.size());
    return *gpus_[id.get()];
  }

  /// Typed view over device memory (e.g., floats of an AllReduce buffer).
  template <class T>
  std::span<T> typed(DevicePtr ptr, std::size_t count) {
    auto raw = gpu(ptr.gpu).bytes(ptr, count * sizeof(T));
    return std::span<T>(reinterpret_cast<T*>(raw.data()), count);
  }

 private:
  std::vector<std::unique_ptr<Gpu>> gpus_;
};

}  // namespace mccs::gpu
