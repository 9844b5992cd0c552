#include "gpusim/stream.h"

#include <algorithm>

namespace mccs::gpu {

void Stream::enqueue_compute(Time duration, std::function<void()> on_complete) {
  MCCS_EXPECTS(duration >= 0.0);
  Op op;
  op.kind = OpKind::kCompute;
  op.duration = duration;
  op.callback = std::move(on_complete);
  ops_.push_back(std::move(op));
  pump();
}

void Stream::enqueue_memcpy(Bytes bytes, Bandwidth bandwidth,
                            std::function<void()> on_complete) {
  MCCS_EXPECTS(bandwidth > 0.0);
  Op op;
  op.kind = OpKind::kMemcpy;
  op.duration = static_cast<double>(bytes) / bandwidth;
  op.callback = std::move(on_complete);
  ops_.push_back(std::move(op));
  pump();
}

void Stream::enqueue_callback(std::function<void()> fn) {
  MCCS_EXPECTS(fn != nullptr);
  Op op;
  op.kind = OpKind::kCallback;
  op.callback = std::move(fn);
  ops_.push_back(std::move(op));
  pump();
}

void Stream::record_event(std::shared_ptr<GpuEvent> event) {
  MCCS_EXPECTS(event != nullptr);
  event->arm();
  Op op;
  op.kind = OpKind::kRecord;
  op.event = std::move(event);
  ops_.push_back(std::move(op));
  pump();
}

void Stream::wait_event(std::shared_ptr<GpuEvent> event) {
  MCCS_EXPECTS(event != nullptr);
  Op op;
  op.kind = OpKind::kWait;
  op.event = std::move(event);
  ops_.push_back(std::move(op));
  pump();
}

ExternalOpToken Stream::enqueue_external(std::function<void()> on_start) {
  const std::uint64_t token = next_external_token_++;
  Op op;
  op.kind = OpKind::kExternal;
  op.callback = std::move(on_start);
  op.external_token = token;
  ops_.push_back(std::move(op));
  pump();
  return ExternalOpToken{token};
}

void Stream::complete_external(ExternalOpToken token) {
  MCCS_EXPECTS(token.valid());
  if (running_ && running_external_token_ == token.value) {
    running_external_token_ = 0;
    // Defer to the event loop so completion ordering is deterministic and
    // callers never re-enter the stream mid-operation.
    loop_->schedule_after(0.0, [this] { finish_current(); });
  } else {
    early_completions_.push_back(token.value);
  }
}

void Stream::pump() {
  if (running_ || ops_.empty()) return;
  running_ = true;
  Op& op = ops_.front();
  switch (op.kind) {
    case OpKind::kCompute:
    case OpKind::kMemcpy: {
      if (op.kind == OpKind::kCompute) {
        compute_busy_ += op.duration;
      } else {
        memcpy_busy_ += op.duration;
      }
      loop_->schedule_after(op.duration, [this] { finish_current(); });
      break;
    }
    case OpKind::kCallback:
    case OpKind::kRecord: {
      loop_->schedule_after(0.0, [this] { finish_current(); });
      break;
    }
    case OpKind::kWait: {
      op.event->on_signal([this] { finish_current(); });
      break;
    }
    case OpKind::kExternal: {
      const std::uint64_t token = op.external_token;
      if (op.callback) op.callback();  // may complete the op synchronously
      auto early = std::find(early_completions_.begin(), early_completions_.end(),
                             token);
      if (early != early_completions_.end()) {
        early_completions_.erase(early);
        loop_->schedule_after(0.0, [this] { finish_current(); });
      } else {
        running_external_token_ = op.external_token;
      }
      break;
    }
  }
}

void Stream::finish_current() {
  MCCS_CHECK(running_ && !ops_.empty(), "stream completion without running op");
  Op op = std::move(ops_.front());
  ops_.pop_front();
  running_ = false;
  running_external_token_ = 0;

  switch (op.kind) {
    case OpKind::kRecord:
      op.event->signal(loop_->now());
      break;
    case OpKind::kCallback:
      op.callback();
      break;
    case OpKind::kCompute:
    case OpKind::kMemcpy:
      if (op.callback) op.callback();
      break;
    case OpKind::kWait:
    case OpKind::kExternal:
      break;
  }
  pump();
}

}  // namespace mccs::gpu
