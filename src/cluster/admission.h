#pragma once
// Admission control for cluster-day churn: a strict-FIFO queue in front of
// the GpuAllocator. Jobs that fit when they arrive are placed immediately;
// jobs that don't — or that arrive behind a waiting job — queue, and every
// departure drains the queue head-first into the freed capacity.
//
// Head-of-line order is deliberate: a small job never bypasses a blocked
// large one. Backfilling would raise utilization a little but starves wide
// jobs under a steady trickle of narrow ones, and makes admission order
// depend on the whole queue state; FIFO is starvation-free and makes the
// admitted set a deterministic function of the event sequence — which the
// churn harness and the warm-start identity tests rely on.
//
// Robustness contract (chaos composition): a departure for a job the queue
// has never heard of — or has already finished — is an idempotent no-op, not
// an abort. Under fault injection the same tenant can die twice (killed by
// the chaos plan, then departed by the trace); the second event must not
// take the control plane down. Malformed requests (zero or impossible GPU
// counts) are rejected on submit for the same reason.
//
// Backpressure: while engaged, nothing is admitted — submits queue, and
// departures release capacity without draining. The controller raises it
// during recovery storms (links flapping, warm state rebuilding) so a burst
// of arrivals defers instead of racing the re-solve; drain_deferred() admits
// the backlog in FIFO order once the storm clears. Bounded retry keeps the
// deferral from becoming a livelock: a head job that fails placement more
// than max_retries times is rejected (reported via take_rejected()) and the
// queue moves on.

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/placement.h"
#include "common/ids.h"

namespace mccs::cluster {

class AdmissionQueue {
 public:
  /// One job granted GPUs (either at submit or when a departure drained it).
  struct Admission {
    JobId job;
    std::vector<GpuId> gpus;  ///< rank order, as GpuAllocator returned it
  };

  AdmissionQueue(const Cluster& cluster, Placement placement)
      : allocator_(cluster),
        placement_(placement),
        total_gpus_(cluster.gpu_count()) {}

  /// Job arrival. Placed immediately (and returned) only when backpressure is
  /// off, the queue is empty, and `gpus` fit; otherwise the job waits its
  /// FIFO turn. Requests for zero GPUs or more GPUs than the cluster has are
  /// rejected outright (counted, reported via take_rejected(), never queued).
  std::optional<std::vector<GpuId>> submit(JobId job, int gpus, Rng& rng);

  /// Job departure — running (GPUs released), still queued (dequeued), or
  /// unknown (idempotent no-op, counted in duplicate_finish_total()).
  /// Returns every waiting job the freed capacity admits, in queue order
  /// (always empty under backpressure).
  std::vector<Admission> finish(JobId job, Rng& rng);

  // --- backpressure ------------------------------------------------------
  /// Engage/release admission backpressure. Releasing does not admit by
  /// itself — call drain_deferred() to admit the backlog.
  void set_backpressure(bool on) { backpressure_ = on; }
  [[nodiscard]] bool backpressure() const { return backpressure_; }
  /// Admit every queued job the current capacity allows, head first
  /// (subject to bounded retry). No-op while backpressure is engaged.
  std::vector<Admission> drain_deferred(Rng& rng);

  /// Bound the per-job placement retries: a queue head that fails placement
  /// more than `n` times is rejected instead of blocking forever. Negative
  /// (the default) means unlimited — classic FIFO head-of-line blocking.
  void set_max_retries(int n) { max_retries_ = n; }

  /// Jobs rejected since the last call (malformed submits + retry-budget
  /// exhaustion), in rejection order. Clears the pending list.
  std::vector<JobId> take_rejected();

  [[nodiscard]] bool is_waiting(JobId job) const;

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  [[nodiscard]] std::size_t free_gpus() const { return allocator_.free_count(); }
  /// All-time admissions (immediate + drained), for goodput accounting.
  [[nodiscard]] std::uint64_t admitted_total() const { return admitted_total_; }
  /// All-time rejections (malformed + retry-budget exhausted).
  [[nodiscard]] std::uint64_t rejected_total() const { return rejected_total_; }
  /// Departures for jobs that were neither running nor queued.
  [[nodiscard]] std::uint64_t duplicate_finish_total() const {
    return duplicate_finish_total_;
  }
  /// Submits that queued because backpressure was engaged.
  [[nodiscard]] std::uint64_t deferred_total() const { return deferred_total_; }
  /// Failed head-of-queue placement attempts (retries consumed).
  [[nodiscard]] std::uint64_t retry_total() const { return retry_total_; }

 private:
  struct Waiting {
    JobId job;
    int gpus = 0;
    int retries = 0;  ///< failed placement attempts while at the head
  };

  /// Admit as many queued jobs as the current free capacity allows, head
  /// first. A head that does not fit consumes one retry; past the budget it
  /// is rejected and the next job gets its chance.
  void drain(std::vector<Admission>& out, Rng& rng);
  void reject(JobId job);

  GpuAllocator allocator_;
  Placement placement_;
  std::size_t total_gpus_ = 0;
  std::deque<Waiting> queue_;
  std::unordered_map<std::uint32_t, std::vector<GpuId>> running_;
  bool backpressure_ = false;
  int max_retries_ = -1;  ///< <0: unlimited
  std::vector<JobId> rejected_;
  std::uint64_t admitted_total_ = 0;
  std::uint64_t rejected_total_ = 0;
  std::uint64_t duplicate_finish_total_ = 0;
  std::uint64_t deferred_total_ = 0;
  std::uint64_t retry_total_ = 0;
};

}  // namespace mccs::cluster
