#pragma once
// CUDA-event analogue.
//
// Semantics mirror cudaEvent_t as used by MCCS (§4.1 "Synchronization"):
//  * record(stream) enqueues a marker; when the stream reaches it, the event
//    becomes signalled and carries the virtual timestamp;
//  * a stream can enqueue a wait on an event recorded on a *different*
//    stream — even one owned by a different process, because events are
//    shareable through inter-process handles (unlike streams).
//
// GpuEvent is the shared state; the shim and the service hold the same
// event through a std::shared_ptr, the analogue of opening its IPC handle.

#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace mccs::gpu {

class GpuEvent {
 public:
  explicit GpuEvent(GpuId device) : device_(device) {}

  [[nodiscard]] GpuId device() const { return device_; }
  [[nodiscard]] bool signalled() const { return signalled_; }
  [[nodiscard]] Time timestamp() const { return timestamp_; }

  /// Arm the event for a new record (called when a record op is enqueued).
  /// Waits enqueued after this block until the new record completes.
  void arm() { signalled_ = false; }

  /// Mark the event signalled at time `now` and release waiters.
  void signal(Time now) {
    signalled_ = true;
    timestamp_ = now;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) w();
  }

  /// Invoke `fn` once the event signals (immediately if already signalled).
  void on_signal(std::function<void()> fn) {
    if (signalled_) {
      fn();
    } else {
      waiters_.push_back(std::move(fn));
    }
  }

 private:
  GpuId device_;
  bool signalled_ = false;
  Time timestamp_ = 0.0;
  std::vector<std::function<void()>> waiters_;
};

}  // namespace mccs::gpu
