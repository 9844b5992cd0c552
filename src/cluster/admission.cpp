#include "cluster/admission.h"

#include <algorithm>

namespace mccs::cluster {

std::optional<std::vector<GpuId>> AdmissionQueue::submit(JobId job, int gpus,
                                                         Rng& rng) {
  MCCS_EXPECTS(running_.count(job.get()) == 0);
  // Malformed request: zero/negative GPUs, or more than the cluster owns.
  // Queueing it would wedge the FIFO head forever (it can never fit), so it
  // is rejected here — loudly counted, never silently dropped.
  if (gpus <= 0 || static_cast<std::size_t>(gpus) > total_gpus_) {
    reject(job);
    return std::nullopt;
  }
  if (backpressure_) {
    ++deferred_total_;
    queue_.push_back(Waiting{job, gpus, 0});
    return std::nullopt;
  }
  if (queue_.empty()) {
    if (auto placed = allocator_.allocate(gpus, placement_, rng)) {
      running_[job.get()] = *placed;
      ++admitted_total_;
      return placed;
    }
  }
  queue_.push_back(Waiting{job, gpus, 0});
  return std::nullopt;
}

std::vector<AdmissionQueue::Admission> AdmissionQueue::finish(JobId job,
                                                              Rng& rng) {
  std::vector<Admission> admitted;
  auto it = running_.find(job.get());
  if (it != running_.end()) {
    allocator_.release(it->second);
    running_.erase(it);
    if (!backpressure_) drain(admitted, rng);
    return admitted;
  }
  // Departed while still waiting (the trace outlived its patience): drop it
  // from the queue. Its removal can unblock the jobs behind it.
  auto queued = std::find_if(queue_.begin(), queue_.end(),
                             [&](const Waiting& w) { return w.job == job; });
  if (queued == queue_.end()) {
    // Unknown job: already finished (a chaos kill followed by the trace's
    // natural departure), rejected at submit, or never submitted. Idempotent
    // by design — under fault injection duplicate departures are routine.
    ++duplicate_finish_total_;
    return admitted;
  }
  const bool was_head = queued == queue_.begin();
  queue_.erase(queued);
  if (was_head && !backpressure_) drain(admitted, rng);
  return admitted;
}

std::vector<AdmissionQueue::Admission> AdmissionQueue::drain_deferred(
    Rng& rng) {
  std::vector<Admission> admitted;
  if (!backpressure_) drain(admitted, rng);
  return admitted;
}

void AdmissionQueue::drain(std::vector<Admission>& out, Rng& rng) {
  while (!queue_.empty()) {
    Waiting& head = queue_.front();
    auto placed = allocator_.allocate(head.gpus, placement_, rng);
    if (!placed) {
      ++retry_total_;
      if (max_retries_ >= 0 && ++head.retries > max_retries_) {
        // Retry budget exhausted: reject rather than livelock the queue
        // behind a head that free capacity may never again cover.
        reject(head.job);
        queue_.pop_front();
        continue;
      }
      break;  // head still blocked; FIFO means everyone waits
    }
    running_[head.job.get()] = *placed;
    ++admitted_total_;
    out.push_back(Admission{head.job, std::move(*placed)});
    queue_.pop_front();
  }
}

void AdmissionQueue::reject(JobId job) {
  rejected_.push_back(job);
  ++rejected_total_;
}

std::vector<JobId> AdmissionQueue::take_rejected() {
  std::vector<JobId> out;
  out.swap(rejected_);
  return out;
}

bool AdmissionQueue::is_waiting(JobId job) const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [&](const Waiting& w) { return w.job == job; });
}

}  // namespace mccs::cluster
