#include "workload/traffic_gen.h"

#include <algorithm>

namespace mccs::workload {

using coll::DataType;
using coll::ReduceOp;

TrainingJob::TrainingJob(svc::Fabric& fabric, AppId app, std::vector<GpuId> gpus,
                         TrainingModelSpec model, Options options)
    : fabric_(&fabric), app_(app), gpus_(std::move(gpus)),
      model_(std::move(model)), options_(options) {
  MCCS_EXPECTS(!gpus_.empty());
  MCCS_EXPECTS(options_.iterations > 0);
}

void TrainingJob::start(std::function<void(Time)> on_complete) {
  on_complete_ = std::move(on_complete);
  start_time_ = fabric_->loop().now();

  ranks_.resize(gpus_.size());
  const svc::UniqueId uid = fabric_->new_unique_id();
  for (int r = 0; r < nranks(); ++r) {
    Rank& rank = ranks_[static_cast<std::size_t>(r)];
    rank.shim = &fabric_->connect(app_, gpus_[static_cast<std::size_t>(r)]);
    rank.compute = &rank.shim->create_app_stream();
    rank.comm = &rank.shim->create_app_stream();

    // Allocate communication buffers.
    switch (model_.parallelism) {
      case Parallelism::kDataParallel:
        for (Bytes b : model_.grad_buckets) {
          rank.buffers.push_back(rank.shim->alloc(b));  // in-place AllReduce
        }
        break;
      case Parallelism::kTensorParallel:
        rank.buffers.push_back(rank.shim->alloc(model_.tp_activation_bytes));
        break;
      case Parallelism::kPipelineParallel:
        // Per-microbatch out/in activation buffers: a sent activation must
        // stay stable while in flight, so microbatches do not share.
        for (int m = 0; m < model_.pp_microbatches; ++m) {
          rank.buffers.push_back(rank.shim->alloc(model_.pp_activation_bytes));
          rank.aux_buffers.push_back(rank.shim->alloc(model_.pp_activation_bytes));
        }
        break;
      case Parallelism::kExpertParallel: {
        const Bytes total =
            model_.moe_tokens_per_peer_bytes * static_cast<Bytes>(nranks());
        rank.buffers.push_back(rank.shim->alloc(total));      // dispatch out
        rank.aux_buffers.push_back(rank.shim->alloc(total));  // dispatch in
        break;
      }
    }

    rank.shim->comm_init_rank(uid, nranks(), r, [this, r](CommId id) {
      comm_ = id;
      if (++ready_ranks_ == nranks()) {
        for (int rr = 0; rr < nranks(); ++rr) begin_iteration(rr);
      }
      (void)r;
    });
  }
}

void TrainingJob::begin_iteration(int rank) {
  // The input-pipeline stall shows up as pure idle time before the
  // iteration's work is enqueued.
  if (model_.input_stall > 0.0) {
    fabric_->loop().schedule_after(model_.input_stall,
                                   [this, rank] { enqueue_iteration(rank); });
  } else {
    enqueue_iteration(rank);
  }
}

void TrainingJob::enqueue_iteration(int rank) {
  Rank& rk = ranks_[static_cast<std::size_t>(rank)];
  gpu::Gpu& dev = fabric_->gpus().gpu(gpus_[static_cast<std::size_t>(rank)]);
  const Bandwidth copy_bw = dev.config().copy_bandwidth;

  if (model_.h2d_bytes_per_iter > 0) {
    rk.compute->enqueue_memcpy(model_.h2d_bytes_per_iter, copy_bw);
  }

  if (model_.parallelism == Parallelism::kPipelineParallel) {
    enqueue_pipeline_iteration(rank);
    return;
  }
  if (model_.parallelism == Parallelism::kExpertParallel) {
    enqueue_expert_iteration(rank);
    return;
  }
  if (model_.parallelism == Parallelism::kDataParallel) {
    // Forward pass: one compute burst, no communication.
    rk.compute->enqueue_compute(model_.forward_compute);

    // Backward pass: per-bucket slices; each bucket's AllReduce is ordered
    // after its slice via an event and issued on the dedicated comm stream
    // so it overlaps subsequent backward compute (DDP-style).
    const std::size_t buckets = model_.grad_buckets.size();
    const Time slice = model_.backward_compute / static_cast<double>(buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
      rk.compute->enqueue_compute(slice);
      auto ready = dev.create_event();
      rk.compute->record_event(ready);
      rk.comm->wait_event(ready);
      const std::size_t count = model_.grad_buckets[b] / sizeof(float);
      rk.shim->all_reduce(comm_, rk.buffers[b], rk.buffers[b], count,
                          DataType::kFloat32, ReduceOp::kSum, *rk.comm);
    }

    // Optimizer waits for every bucket's AllReduce (the comm stream reaches
    // this record only after all done-events).
    auto all_reduced = dev.create_event();
    rk.comm->record_event(all_reduced);
    rk.compute->wait_event(all_reduced);
    rk.compute->enqueue_compute(model_.optimizer_compute,
                                [this, rank] { on_iteration_done(rank); });
  } else {
    // Tensor parallel: per-layer compute and activation AllReduces strictly
    // alternate on one stream (communication on the critical path).
    const Time fwd_slice = model_.forward_compute / model_.layers;
    const Time bwd_slice = model_.backward_compute / model_.layers;
    const std::size_t count = model_.tp_activation_bytes / sizeof(float);
    for (int pass = 0; pass < 2; ++pass) {
      const Time slice = pass == 0 ? fwd_slice : bwd_slice;
      for (int l = 0; l < model_.layers; ++l) {
        rk.compute->enqueue_compute(slice);
        for (int c = 0; c < model_.tp_collectives_per_layer; ++c) {
          rk.shim->all_reduce(comm_, rk.buffers[0], rk.buffers[0], count,
                              DataType::kFloat32, ReduceOp::kSum, *rk.compute);
        }
      }
    }
    rk.compute->enqueue_compute(model_.optimizer_compute,
                                [this, rank] { on_iteration_done(rank); });
  }
}

void TrainingJob::enqueue_pipeline_iteration(int rank) {
  // GPipe-style schedule: all microbatches forward, then all backward.
  // Activations flow between neighbouring stages over the service's P2P
  // path; sends ride a separate stream so the next microbatch's compute is
  // not serialized behind the transfer.
  Rank& rk = ranks_[static_cast<std::size_t>(rank)];
  gpu::Gpu& dev = fabric_->gpus().gpu(gpus_[static_cast<std::size_t>(rank)]);
  const int stage = rank;
  const int stages = nranks();
  const int mb = model_.pp_microbatches;
  const Time f_slice = model_.forward_compute / mb;
  const Time b_slice = model_.backward_compute / mb;
  const std::size_t count = model_.pp_activation_bytes / sizeof(float);

  for (int pass = 0; pass < 2; ++pass) {
    const bool fwd = pass == 0;
    const int from = fwd ? stage - 1 : stage + 1;
    const int to = fwd ? stage + 1 : stage - 1;
    for (int m = 0; m < mb; ++m) {
      auto& in = rk.aux_buffers[static_cast<std::size_t>(m)];
      auto& out = rk.buffers[static_cast<std::size_t>(m)];
      if (from >= 0 && from < stages) {
        rk.shim->recv(comm_, from, in, count, DataType::kFloat32, *rk.compute);
      }
      rk.compute->enqueue_compute(fwd ? f_slice : b_slice);
      if (to >= 0 && to < stages) {
        auto ready = dev.create_event();
        rk.compute->record_event(ready);
        rk.comm->wait_event(ready);
        rk.shim->send(comm_, to, out, count, DataType::kFloat32, *rk.comm);
      }
    }
  }

  // Optimizer runs once every in-flight send drained (the comm stream
  // reaches this record only after the last send's done-event).
  auto sends_done = dev.create_event();
  rk.comm->record_event(sends_done);
  rk.compute->wait_event(sends_done);
  rk.compute->enqueue_compute(model_.optimizer_compute,
                              [this, rank] { on_iteration_done(rank); });
}

void TrainingJob::enqueue_expert_iteration(int rank) {
  // MoE: per layer and pass, an AllToAll dispatches tokens to experts, the
  // expert computes, and a second AllToAll combines the results. Strictly
  // serial on the compute stream (the routing output feeds the expert).
  Rank& rk = ranks_[static_cast<std::size_t>(rank)];
  const std::size_t count = model_.moe_tokens_per_peer_bytes / sizeof(float);
  const Time f_slice = model_.forward_compute / (2 * model_.layers);
  const Time b_slice = model_.backward_compute / (2 * model_.layers);
  auto& out = rk.buffers[0];
  auto& in = rk.aux_buffers[0];

  for (int pass = 0; pass < 2; ++pass) {
    const Time slice = pass == 0 ? f_slice : b_slice;
    for (int l = 0; l < model_.layers; ++l) {
      rk.compute->enqueue_compute(slice);
      rk.shim->all_to_all(comm_, out, in, count, DataType::kFloat32, *rk.compute);
      rk.compute->enqueue_compute(slice);
      rk.shim->all_to_all(comm_, in, out, count, DataType::kFloat32, *rk.compute);
    }
  }
  rk.compute->enqueue_compute(model_.optimizer_compute,
                              [this, rank] { on_iteration_done(rank); });
}

void TrainingJob::on_iteration_done(int rank) {
  Rank& rk = ranks_[static_cast<std::size_t>(rank)];
  ++rk.iteration;
  if (rank == 0) iteration_ends_.push_back(fabric_->loop().now());

  if (rk.iteration < options_.iterations) {
    begin_iteration(rank);
    return;
  }
  if (++finished_ranks_ == nranks()) {
    completion_time_ = fabric_->loop().now();
    if (on_complete_) on_complete_(completion_time_);
  }
}

int TrainingJob::iterations_in_window(Time a, Time b) const {
  int count = 0;
  for (Time t : iteration_ends_) {
    if (t >= a && t < b) ++count;
  }
  return count;
}

BreakdownReport TrainingJob::breakdown() const {
  MCCS_EXPECTS(finished());
  const Time total = completion_time_ - start_time_;
  const Rank& r0 = ranks_.front();
  const Time compute = r0.compute->compute_busy_time();
  const Time memcpy_time = r0.compute->memcpy_busy_time();
  const Time idle = model_.input_stall * options_.iterations;
  const Time comm = std::max(0.0, total - compute - memcpy_time - idle);
  BreakdownReport rep;
  rep.compute_frac = compute / total;
  rep.memcpy_frac = memcpy_time / total;
  rep.idle_frac = idle / total;
  rep.comm_frac = comm / total;
  return rep;
}

namespace {

/// One tick of run_periodic_traffic_scheduling. Each tick schedules a copy of
/// itself, so nothing outlives the tick that stops rescheduling.
struct TrafficSchedulingTick {
  svc::Fabric* fabric;
  policy::Controller* controller;
  const TrainingJob* prio_job;
  std::vector<AppId> others;
  Time interval;
  Time guard;

  void operator()() const {
    if (prio_job->finished()) {
      controller->clear_time_schedule(others);
      return;
    }
    const auto& ends = prio_job->iteration_end_times();
    if (ends.size() >= 3) {
      const std::size_t k = std::min<std::size_t>(ends.size() - 1, 3);
      const Time period =
          (ends.back() - ends[ends.size() - 1 - k]) / static_cast<double>(k);
      controller->apply_profiled_schedule(prio_job->app(), others, period,
                                          ends.back(), guard);
    }
    fabric->loop().schedule_after(interval, *this);
  }
};

}  // namespace

void run_periodic_traffic_scheduling(svc::Fabric& fabric,
                                     policy::Controller& controller,
                                     const TrainingJob& prio_job,
                                     std::vector<AppId> others, Time interval,
                                     Time guard) {
  fabric.loop().schedule_after(
      0.0, TrafficSchedulingTick{&fabric, &controller, &prio_job,
                                 std::move(others), interval, guard});
}

}  // namespace mccs::workload
