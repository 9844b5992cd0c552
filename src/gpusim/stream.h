#pragma once
// CUDA-stream analogue: an in-order queue of operations executed by a
// simulated GPU. Independent streams run concurrently (the overlap of
// compute and communication that Fig. 2's breakdown measures comes from
// this). Operations:
//
//   compute kernel  — occupies the stream for a caller-supplied duration;
//   memcpy          — duration = bytes / copy-bandwidth;
//   record event    — signals a GpuEvent when reached;
//   wait event      — blocks the stream until a GpuEvent signals;
//   host callback   — runs a host function when reached (in stream order);
//   external op     — blocks the stream until an external component
//                     completes it (how MCCS communication kernels, driven
//                     by proxy/transport engines, occupy the communicator
//                     stream).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "gpusim/event.h"
#include "sim/event_loop.h"

namespace mccs::gpu {

/// Token identifying an in-flight external op on a stream.
struct ExternalOpToken {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
};

class Stream {
 public:
  Stream(sim::EventLoop& loop, GpuId device, StreamId id)
      : loop_(&loop), device_(device), id_(id) {}

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] StreamId id() const { return id_; }
  [[nodiscard]] GpuId device() const { return device_; }

  /// True when no operation is queued or running.
  [[nodiscard]] bool idle() const { return ops_.empty() && !running_; }

  /// Enqueue a compute kernel of fixed duration.
  void enqueue_compute(Time duration, std::function<void()> on_complete = {});

  /// Enqueue a host<->device copy (duration = bytes / bandwidth).
  void enqueue_memcpy(Bytes bytes, Bandwidth bandwidth,
                      std::function<void()> on_complete = {});

  /// Enqueue a host callback that runs when the stream reaches it.
  void enqueue_callback(std::function<void()> fn);

  /// Enqueue an event record; `event->arm()` is called now, and the event
  /// signals when the stream reaches the marker.
  void record_event(std::shared_ptr<GpuEvent> event);

  /// Enqueue a wait: subsequent ops do not start until `event` signals.
  void wait_event(std::shared_ptr<GpuEvent> event);

  /// Enqueue an externally-completed operation (e.g., an MCCS communication
  /// kernel). `on_start` fires when the stream reaches the op; the op — and
  /// the stream — completes only when complete_external() is called.
  ExternalOpToken enqueue_external(std::function<void()> on_start = {});

  /// Complete a previously enqueued external op. Safe to call before the
  /// stream reaches the op (completion is remembered).
  void complete_external(ExternalOpToken token);

  /// Total busy time accumulated by compute ops (used by Fig. 2's breakdown).
  [[nodiscard]] Time compute_busy_time() const { return compute_busy_; }
  [[nodiscard]] Time memcpy_busy_time() const { return memcpy_busy_; }

 private:
  enum class OpKind { kCompute, kMemcpy, kCallback, kRecord, kWait, kExternal };

  struct Op {
    OpKind kind;
    Time duration = 0.0;
    std::function<void()> callback;          // completion / host callback
    std::shared_ptr<GpuEvent> event;         // record / wait
    std::uint64_t external_token = 0;        // external
  };

  void pump();
  void finish_current();

  sim::EventLoop* loop_;
  GpuId device_;
  StreamId id_;
  std::deque<Op> ops_;
  bool running_ = false;                     // head op in flight
  std::uint64_t next_external_token_ = 1;
  // External ops completed before the stream reached them.
  std::deque<std::uint64_t> early_completions_;
  std::uint64_t running_external_token_ = 0;
  Time compute_busy_ = 0.0;
  Time memcpy_busy_ = 0.0;
};

}  // namespace mccs::gpu
