#include "common/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace mccs::par {
namespace {

/// Depth of parallel regions on this thread: > 0 inside a worker task or a
/// live parallel_for body, where further parallel calls run inline.
thread_local int t_in_parallel = 0;

/// Marks the calling thread as inside a parallel region for its scope.
struct RegionScope {
  RegionScope() { ++t_in_parallel; }
  ~RegionScope() { --t_in_parallel; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;
};

constexpr int kMaxThreads = 256;

/// MCCS_THREADS when set to a positive integer, else the hardware concurrency.
int default_threads() {
  static const int cached = [] {
    if (const char* env = std::getenv("MCCS_THREADS")) {
      const int v = std::atoi(env);
      if (v >= 1) return std::min(v, kMaxThreads);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
  }();
  return cached;
}

/// Fork-join pool: `threads - 1` workers plus the calling thread. A single
/// job is live at a time (the calling thread blocks until its job drains),
/// which is all fork-join needs and keeps the claim path trivial. Chunk
/// claiming is mutex-based: tens of nanoseconds, noise at the grain the
/// callers use (a 256 KiB reduce shard, a whole simulation).
class Pool {
 public:
  Pool() : threads_(default_threads()) {}
  ~Pool() { join_workers(); }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  void set_threads(int threads) {
    join_workers();
    threads_ = threads > 0 ? std::min(threads, kMaxThreads) : default_threads();
  }

  void parallel_for(std::size_t n, std::size_t grain,
                    FunctionRef<void(std::size_t, std::size_t)> body) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t num_chunks = (n + grain - 1) / grain;

    // Inline path: single-threaded configuration, a range that fits one
    // chunk, or a nested call. Runs the identical chunk decomposition on this
    // thread — bit-identical work, zero synchronisation, and no pool startup.
    if (threads_ <= 1 || num_chunks <= 1 || t_in_parallel > 0) {
      const RegionScope region;
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t begin = c * grain;
        body(begin, std::min(n, begin + grain));
      }
      return;
    }

    Job j;
    j.body = &body;
    j.n = n;
    j.grain = grain;
    j.num_chunks = num_chunks;
    {
      std::lock_guard<std::mutex> lk(mu_);
      MCCS_CHECK(job_ == nullptr, "parallel region already live");
      // Lazy worker start: a process that never leaves the inline path never
      // pays thread creation. A new worker starts from the epoch before this
      // publish, so it runs the job that spawned it however late it is
      // scheduled.
      while (workers_.size() + 1 < static_cast<std::size_t>(threads_)) {
        workers_.emplace_back([this, seen = epoch_] { worker_main(seen); });
      }
      ++epoch_;
      job_ = &j;
    }
    work_cv_.notify_all();

    {
      const RegionScope region;
      std::unique_lock<std::mutex> lk(mu_);
      run_chunks(lk);  // the caller is a full participant
      done_cv_.wait(lk, [&j] { return j.done_chunks == j.num_chunks; });
    }
    if (j.error) std::rethrow_exception(j.error);
  }

 private:
  /// The single live fork-join job, guarded by `mu_`; the body itself runs
  /// outside the lock.
  struct Job {
    const FunctionRef<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
    std::size_t next_chunk = 0;
    std::size_t done_chunks = 0;
    std::exception_ptr error;  ///< first exception a chunk threw
  };

  /// Claim and run chunks of the live job until none remain. Entered and
  /// exited with `lk` held. The thread whose increment completes the job
  /// clears `job_` (quiescing it: nobody dereferences the Job afterwards)
  /// and wakes the caller. A throwing chunk still retires: the job must
  /// drain before the caller's stack frame that holds it unwinds, and the
  /// caller rethrows the first exception afterwards.
  void run_chunks(std::unique_lock<std::mutex>& lk) {
    while (job_ != nullptr && job_->next_chunk < job_->num_chunks) {
      Job* j = job_;
      const std::size_t c = j->next_chunk++;
      lk.unlock();
      const std::size_t begin = c * j->grain;
      std::exception_ptr error;
      try {
        (*j->body)(begin, std::min(j->n, begin + j->grain));
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      if (error && !j->error) j->error = error;
      if (++j->done_chunks == j->num_chunks) {
        job_ = nullptr;
        done_cv_.notify_all();
      }
    }
  }

  void worker_main(std::uint64_t seen) {
    t_in_parallel = 1;  // parallel calls from task bodies run inline
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      // Wait for the next publish (or stop). The job pointer alone is NOT a
      // wait condition: a live job whose chunks are all claimed but not yet
      // retired must not be polled — the claimants still need `mu_` to
      // finish, and a poll loop here would hold it forever.
      work_cv_.wait(lk, [this, seen] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      run_chunks(lk);
    }
  }

  void join_workers() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      MCCS_CHECK(job_ == nullptr, "pool re-shaped inside a parallel region");
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = false;
  }

  int threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers sleep here
  std::condition_variable done_cv_;  ///< the publishing caller sleeps here
  std::uint64_t epoch_ = 0;  ///< guarded by mu_; bumped on every publish
  bool stop_ = false;        ///< guarded by mu_
  Job* job_ = nullptr;       ///< guarded by mu_; null = no live job
  std::vector<std::thread> workers_;
};

Pool& default_pool() {
  static Pool pool;
  return pool;
}

}  // namespace

void parallel_for(std::size_t n, std::size_t grain,
                  FunctionRef<void(std::size_t, std::size_t)> body) {
  default_pool().parallel_for(n, grain, body);
}

int thread_count() { return default_pool().threads(); }

void set_threads(int threads) { default_pool().set_threads(threads); }

}  // namespace mccs::par
