#pragma once
// Shared machinery of the end-to-end benchmark: the pausable work
// clock, per-layer span tracing, the timed-phase bookkeeping every workload
// reports through, and the virtual-time digest.
//
// The benchmark touches the library only through its public calls (Shim,
// Fabric, Controller, Network, EventLoop, AdmissionQueue), so every span is
// recorded here, around a call the benchmark makes into a layer. Spans are
// aggregated in memory per layer (count, inclusive and self time) and
// written out as a table when the run ends.

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/event_loop.h"

namespace mccs::net {
class Network;
}

namespace bench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< episodes start for this long (host seconds)
  bool trace = false;
  bool smoke = false;  ///< ~1/50 size, every check on
};

/// Host wall clock (seconds) that stops while correctness checks run, so a
/// check never counts toward any timing, span or throughput.
class WorkClock {
 public:
  [[nodiscard]] double now() const { return raw() - paused_; }
  void pause() { pause_start_ = raw(); }
  void resume() { paused_ += raw() - pause_start_; }
  /// Host time, never paused.
  static double raw();

 private:
  double paused_ = 0.0;
  double pause_start_ = 0.0;
};
WorkClock& work_clock();

/// Stops the work clock for its lifetime (correctness checks, data fills).
class Untimed {
 public:
  Untimed() { work_clock().pause(); }
  ~Untimed() { work_clock().resume(); }
  Untimed(const Untimed&) = delete;
  Untimed& operator=(const Untimed&) = delete;
};

/// The layer boundaries the benchmark records spans at.
enum class Layer : int {
  kShim,               ///< svc::Shim calls (and TrainingJob::start)
  kLoopStep,           ///< one sim::EventLoop::step
  kLoopDrain,          ///< running the loop until it is empty
  kNetStartFlow,       ///< net::Network::start_flow
  kNetBatchClose,      ///< net::Network::end_batch (the coalesced solve)
  kNetPauseResume,     ///< net::Network::pause_flow / resume_flow
  kNetLinkState,       ///< net::Network::set_link_state
  kPolicyRebalance,    ///< policy::Controller::rebalance
  kPolicyLinkFault,    ///< Controller::mark_link_failed / clear_link_failed
  kFabricCommCreate,   ///< comm_init_rank on every rank until all are ready
  kFabricCommDestroy,  ///< svc::Fabric::destroy_communicator
  kClusterAdmission,   ///< cluster::AdmissionQueue::submit / finish
  kCount,
};
const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< inclusive
  double self_s = 0.0;   ///< minus nested spans
};

/// In-memory span aggregation. Disabled (the untraced run) it records
/// nothing and costs one branch per boundary.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(Layer layer) {
    if (enabled_) begin_at(layer, work_clock().now());
  }
  void end() {
    if (enabled_) end_at(work_clock().now());
  }
  /// The same with a work-clock reading the caller already took.
  void begin_at(Layer layer, double now) {
    stack_.push_back(Open{layer, now, 0.0});
  }
  void end_at(double now);

  /// Forget everything recorded so far (called when the timed phase starts).
  void reset();

  [[nodiscard]] const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Work-clock seconds covered by outermost spans.
  [[nodiscard]] double covered_s() const { return covered_s_; }
  [[nodiscard]] std::uint64_t spans() const { return spans_; }

 private:
  struct Open {
    Layer layer;
    double start;
    double child_s;
  };
  bool enabled_ = false;
  std::vector<Open> stack_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  double covered_s_ = 0.0;
  std::uint64_t spans_ = 0;
};
Tracer& tracer();

class Span {
 public:
  explicit Span(Layer layer) { tracer().begin(layer); }
  ~Span() { tracer().end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Order-sensitive FNV-1a over (logical op id, virtual completion time)
/// records, limited to the first `limit` records.
class Digest {
 public:
  explicit Digest(std::uint64_t limit) : limit_(limit) {}
  void record(std::uint64_t id, mccs::Time t);
  [[nodiscard]] bool complete() const { return records_ >= limit_; }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  void fold(std::uint64_t x);
  std::uint64_t limit_;
  std::uint64_t records_ = 0;
  std::uint64_t h_ = 1469598103934665603ull;
};

/// One run of one workload, made of episodes. Each episode builds the
/// workload's state (timed: one setup sample), runs a fixed amount of work
/// on it (timed: the work phase), then checks the results. The run's seed
/// yields `variants` input seeds; a round runs one episode of each, and
/// rounds repeat until the run's time is up. The simulation is
/// deterministic, so every repeat of a variant does exactly the same work,
/// event for event, and the harness checks that it did.
///
/// Every timing is the median of a variant's repeats, and each episode runs
/// on the next of the CPUs the process may use. Why: on a shared virtual
/// machine, how fast this process runs depends on where the host runs the
/// vCPU it sits on, and that holds while the vCPU stays busy. One variant
/// repeated on one vCPU kept its speed for a whole run, and whole 10 s runs
/// of one seed came out anywhere from 656 to 1004 op/s. Moving to another
/// vCPU draws a new placement: repeats of one episode then took from 1.0x
/// to 1.7x its fastest time, most of them near 1.6x. Across ten runs, the
/// median of repeats moved 4-7% (IQR / median) where the fastest repeat
/// moved 11-13%, because the fast placements are rare. The variants average
/// out how much one input costs next to another.
class Run {
 public:
  explicit Run(Options options);

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] bool smoke() const { return options_.smoke; }

  /// Inputs per run (default 8); set before the first episode. A workload
  /// whose inputs differ more in cost takes more of them.
  void set_variants(std::size_t n) { variants_ = n; }

  /// Start the next episode, if one is due: every variant once, then more
  /// while fewer than `seconds` have passed since the first began (one
  /// episode under --scale smoke).
  bool next_episode();
  [[nodiscard]] bool first_episode() const { return started_ == 1; }
  /// The current episode's input seed: one of `variants` drawn from --seed.
  [[nodiscard]] std::uint64_t episode_seed() const;

  /// Build the episode's state, timed as one setup sample.
  template <class Build>
  auto build(Build&& build) {
    const double t0 = work_clock().now();
    auto state = build();
    build_s_ = work_clock().now() - t0;
    return state;
  }

  /// The episode's work phase. Everything between the two calls is timed;
  /// ops, events and spans are counted only inside it.
  void begin_work();
  void end_work();
  [[nodiscard]] bool timing() const { return working_; }

  /// Ops completed in the current episode's work phase (outside it they
  /// only count toward `attempted`).
  void add_ops(std::uint64_t n = 1) {
    if (working_) ops_ += n;
  }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  /// For a workload that counts an episode's ops after end_work.
  void set_ops(std::uint64_t n) { ops_ = n; }

  /// One event latency sample, host seconds, in the work phase's event
  /// order.
  void sample_event(double seconds) { event_s_.push_back(seconds); }
  /// Whether a loop step is the workload's event (the default) or the
  /// workload samples its own coarser events (a whole control event).
  void set_steps_are_events(bool v) { steps_are_events_ = v; }

  /// Step the loop until the episode has `ops` ops or the loop empties,
  /// timing each step (an event-latency sample unless disabled, and a
  /// loop.step span when tracing).
  void step_until_ops(mccs::sim::EventLoop& loop, std::uint64_t ops);
  /// Run the loop until it is empty as one loop.drain span; each step is
  /// still a loop.step span and (in the work phase) an event sample.
  void drain(mccs::sim::EventLoop& loop);

  /// Peaks sampled only when tracing: the loop backlog and live flows at
  /// every step (of the watched network), and admission queue depth.
  enum class Peak { kLoopPending, kActiveFlows, kQueueDepth, kCount };
  void observe_peak(Peak peak, double value) {
    double& p = peaks_[static_cast<std::size_t>(peak)];
    p = std::max(p, value);
  }
  void watch_network(const mccs::net::Network* net) { watched_ = net; }

  void add_attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// One failed correctness check; `what` is printed once per kind.
  void fail(const std::string& what);

  /// Report a metric by name (per-layer counters, virtual-time results).
  void metric(const std::string& name, double value, const std::string& unit);
  /// The first episode's digest is printed; every later repeat of a variant
  /// must match that variant's first.
  void digest(const Digest& d);

  /// Print every metric, the span table, and the result line. Returns the
  /// process exit code: non-zero when any check failed.
  int finish();

 private:
  /// One episode's timings.
  struct Repeat {
    double build_s = 0.0;
    double work_s = 0.0;
    double event_p50_s = 0.0;
    double event_p99_s = 0.0;
  };
  /// Per variant: the work its first repeat did, and every repeat's timings.
  struct Variant {
    std::uint64_t ops = 0;
    std::size_t events = 0;
    std::uint64_t digest = 0;
    std::vector<Repeat> repeats;
  };
  [[nodiscard]] std::size_t variant() const { return (started_ - 1) % variants_; }
  [[nodiscard]] bool first_repeat() const { return started_ <= variants_; }
  /// Add the current episode to its variant's repeats.
  void close_episode();
  /// Pin the process to the CPU the current episode runs on.
  void move_to_episode_cpu() const;
  /// Step the loop once. `t` is the work-clock time the step starts at and
  /// becomes the time it ended, so back-to-back steps are timed end to end:
  /// one clock read per step, and no gap between their spans. Returns false
  /// when the loop is empty.
  bool step(mccs::sim::EventLoop& loop, double& t);

  Options options_;
  std::vector<int> cpus_;  ///< the CPUs the process may use
  std::size_t variants_ = 8;
  double first_start_ = 0.0;
  std::size_t started_ = 0;  ///< episodes begun
  double build_s_ = 0.0;     ///< the current episode's
  double work_s_ = 0.0;      ///< the current episode's
  std::vector<Variant> per_variant_;
  double timed_s_ = 0.0;         ///< every work phase
  std::uint64_t total_ops_ = 0;  ///< every work phase
  bool working_ = false;
  double work_start_ = 0.0;
  std::uint64_t ops_ = 0;  ///< in the current episode
  std::uint64_t steps_ = 0;  ///< loop steps inside work phases
  bool steps_are_events_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> failures_;
  double rss_mb_ = 0.0;  ///< peak RSS at the end of the first work phase
  double user_s_ = 0.0;
  double sys_s_ = 0.0;
  std::vector<double> event_s_;  ///< the current episode's samples
  std::array<double, static_cast<std::size_t>(Peak::kCount)> peaks_{};
  const mccs::net::Network* watched_ = nullptr;
  struct Reported {
    double value;
    std::string unit;
  };
  std::map<std::string, Reported> metrics_;
  std::string digest_line_;
};

// --- workloads ---------------------------------------------------------------
void run_svc_small(Run& run);
void run_svc_train_churn(Run& run);
void run_netsim_churn(Run& run);
void run_ctl_churn(Run& run);

}  // namespace bench
