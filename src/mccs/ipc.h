#pragma once
// Shared-memory IPC between the shim and the service (§4.1: "communicates
// with MCCS service using shared host and GPU memory" over "the shared
// memory command queue").
//
// SpscQueue is a bounded single-producer/single-consumer ring buffer — the
// data structure the real system places in shared memory. CommandQueue
// wraps it with the timing model of the doorbell + sleeping-poller pattern:
// a push into an empty queue arms a delivery event one IPC latency later;
// when it fires, the consumer drains everything that accumulated (burst
// coalescing, exactly how a woken poller behaves). The queue is bounded:
// a tenant that overruns it gets backpressure, not unbounded service-side
// memory growth.

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/event_loop.h"

namespace mccs::svc {

/// Bounded SPSC ring buffer. Indices only ever grow; the ring wraps by
/// masking, so capacity must be a power of two. The ring is allocated by
/// the first push: a shim that never issues a command holds none.
template <class T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity) : capacity_(capacity) {
    MCCS_EXPECTS(capacity >= 2);
    MCCS_EXPECTS((capacity & (capacity - 1)) == 0);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return head_ - tail_; }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] bool full() const { return size() == capacity(); }

  /// Producer side; returns false when the ring is full (backpressure).
  [[nodiscard]] bool try_push(T value) {
    if (full()) return false;
    if (buffer_.empty()) buffer_.resize(capacity_);
    buffer_[head_ & (capacity() - 1)] = std::move(value);
    ++head_;
    return true;
  }

  /// Consumer side.
  std::optional<T> try_pop() {
    if (empty()) return std::nullopt;
    T value = std::move(buffer_[tail_ & (capacity() - 1)]);
    ++tail_;
    return value;
  }

 private:
  std::size_t capacity_;
  std::vector<T> buffer_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

/// A latency-modelled command queue: producer pushes, consumer callback runs
/// one `latency` after the queue goes non-empty and drains in FIFO order.
template <class T>
class CommandQueue {
 public:
  using Consumer = std::function<void(T)>;

  CommandQueue(sim::EventLoop& loop, Time latency, std::size_t capacity,
               Consumer consumer)
      : loop_(&loop), latency_(latency), ring_(capacity),
        consumer_(std::move(consumer)) {
    MCCS_EXPECTS(consumer_ != nullptr);
  }

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  /// Producer entry point. Throws on overrun — the tenant outran the
  /// service; a production shim would spin-wait, which has no analogue in
  /// the virtual-time applications this repository runs.
  void push(T value) {
    MCCS_CHECK(ring_.try_push(std::move(value)),
               "IPC command queue overrun (tenant outran the service)");
    arm();
  }

  [[nodiscard]] std::size_t depth() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

 private:
  void arm() {
    if (loop_->pending(wakeup_)) return;
    // Doorbell: the consumer wakes one IPC latency after the first pending
    // command (zero latency = in-process library: deliver via the loop so
    // producers never re-enter the consumer synchronously).
    wakeup_ = loop_->schedule_after(latency_, [this] { drain(); });
  }

  void drain() {
    while (auto value = ring_.try_pop()) {
      consumer_(std::move(*value));
    }
  }

  sim::EventLoop* loop_;
  Time latency_;
  SpscQueue<T> ring_;
  Consumer consumer_;
  sim::EventLoop::Handle wakeup_;
};

}  // namespace mccs::svc
