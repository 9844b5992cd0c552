#include "mccs_bench/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/stats.h"
#include "netsim/network.h"

namespace bench {

double WorkClock::raw() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WorkClock& work_clock() {
  static WorkClock clock;
  return clock;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kShim: return "shim.call";
    case Layer::kLoopStep: return "loop.step";
    case Layer::kLoopDrain: return "loop.drain";
    case Layer::kNetStartFlow: return "netsim.start_flow";
    case Layer::kNetBatchClose: return "netsim.batch_close";
    case Layer::kNetPauseResume: return "netsim.pause_resume";
    case Layer::kNetLinkState: return "netsim.link_state";
    case Layer::kPolicyRebalance: return "policy.rebalance";
    case Layer::kPolicyLinkFault: return "policy.link_fault";
    case Layer::kFabricCommCreate: return "fabric.comm_create";
    case Layer::kFabricCommDestroy: return "fabric.comm_destroy";
    case Layer::kClusterAdmission: return "cluster.admission";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::end_at(double now) {
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = now - open.start;
  LayerTotals& t = totals_[static_cast<std::size_t>(open.layer)];
  ++t.count;
  t.total_s += dur;
  t.self_s += dur - open.child_s;
  ++spans_;
  if (stack_.empty()) {
    covered_s_ += dur;
  } else {
    stack_.back().child_s += dur;
  }
}

void Tracer::reset() {
  totals_ = {};
  covered_s_ = 0.0;
  spans_ = 0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Digest::fold(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (x >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::record(std::uint64_t id, mccs::Time t) {
  if (records_ >= limit_) return;
  ++records_;
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(t));
  std::memcpy(&bits, &t, sizeof(bits));
  fold(id);
  fold(bits);
}

namespace {

struct Usage {
  double user_s;
  double sys_s;
  double maxrss_mb;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
               static_cast<double>(ru.ru_maxrss) / 1024.0};
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

/// Host cost of one span, measured on a scratch tracer: the basis of the
/// trace run's overhead estimate.
double span_cost_s() {
  Tracer scratch;
  scratch.set_enabled(true);
  constexpr int kSpans = 200000;
  const double t0 = work_clock().now();
  for (int i = 0; i < kSpans; ++i) {
    scratch.begin(Layer::kShim);
    scratch.end();
  }
  return (work_clock().now() - t0) / kSpans;
}

}  // namespace

Run::Run(Options options) : options_(std::move(options)) {
  tracer().set_enabled(options_.trace);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

bool Run::next_episode() {
  if (started_ > 0) close_episode();
  const double now = WorkClock::raw();
  if (started_ == 0) {
    first_start_ = now;
    per_variant_.assign(variants_, Variant{});
  }
  const bool more = options_.smoke ? started_ == 0
                                   : started_ < variants_ ||
                                         now - first_start_ < options_.seconds;
  if (more) {
    ++started_;
    move_to_episode_cpu();
  }
  return more;
}

void Run::move_to_episode_cpu() const {
  if (cpus_.size() < 2) return;
  // Round r runs variant v on CPU (v + r) mod n, so every variant's repeats
  // visit every CPU.
  const std::size_t round = (started_ - 1) / variants_;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[(variant() + round) % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

std::uint64_t Run::episode_seed() const {
  // splitmix64 of (seed, variant): distinct, well-mixed input seeds.
  std::uint64_t z = (options_.seed << 10) + variant() + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Run::begin_work() {
  if (started_ == 1) tracer().reset();
  tracer().set_enabled(options_.trace);
  const Usage u = usage();
  user_s_ -= u.user_s;
  sys_s_ -= u.sys_s;
  ops_ = 0;
  event_s_.clear();
  working_ = true;
  work_start_ = work_clock().now();
}

void Run::end_work() {
  work_s_ = work_clock().now() - work_start_;
  working_ = false;
  tracer().set_enabled(false);  // per-layer numbers cover work phases only
  const Usage u = usage();
  user_s_ += u.user_s;
  sys_s_ += u.sys_s;
  if (started_ == 1) rss_mb_ = u.maxrss_mb;
}

void Run::close_episode() {
  timed_s_ += work_s_;
  total_ops_ += ops_;
  Variant& v = per_variant_[variant()];
  if (first_repeat()) {
    v.ops = ops_;
    v.events = event_s_.size();
  } else if (ops_ != v.ops || event_s_.size() != v.events) {
    fail("repeats of one input did different work");
    return;
  }
  Repeat r{build_s_, work_s_, 0.0, 0.0};
  if (!event_s_.empty()) {
    mccs::sort_samples(event_s_);
    r.event_p50_s = mccs::percentile_sorted(event_s_, 50.0);
    r.event_p99_s = mccs::percentile_sorted(event_s_, 99.0);
  }
  v.repeats.push_back(r);
}

bool Run::step(mccs::sim::EventLoop& loop, double& t) {
  Tracer& tr = tracer();
  const double t0 = t;
  if (tr.enabled()) {
    observe_peak(Peak::kLoopPending, static_cast<double>(loop.size()));
    if (watched_ != nullptr) {
      observe_peak(Peak::kActiveFlows,
                   static_cast<double>(watched_->active_flow_count()));
    }
    tr.begin_at(Layer::kLoopStep, t0);
  }
  const bool more = loop.step();
  t = work_clock().now();
  if (tr.enabled()) tr.end_at(t);
  if (working_ && more) {
    ++steps_;
    if (steps_are_events_) sample_event(t - t0);
  }
  return more;
}

void Run::step_until_ops(mccs::sim::EventLoop& loop, std::uint64_t ops) {
  double t = work_clock().now();
  while (ops_ < ops && step(loop, t)) {
  }
}

void Run::drain(mccs::sim::EventLoop& loop) {
  Span span(Layer::kLoopDrain);
  double t = work_clock().now();
  while (step(loop, t)) {
  }
}

void Run::fail(const std::string& what) {
  ++failed_;
  if (failures_[what]++ == 0) {
    std::printf("check failed: %s\n", what.c_str());
  }
}

void Run::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Reported{value, unit};
}

void Run::digest(const Digest& d) {
  if (first_repeat()) {
    per_variant_[variant()].digest = d.value();
  } else if (per_variant_[variant()].digest != d.value()) {
    fail("repeats of one input simulated different results");
  }
  if (started_ != 1) return;
  char line[128];
  std::snprintf(line, sizeof line, "virt_digest %016llx over %llu ops",
                static_cast<unsigned long long>(d.value()),
                static_cast<unsigned long long>(d.records()));
  digest_line_ = line;
}

int Run::finish() {
  const Tracer& tr = tracer();

  // End-to-end metrics from the median of each variant's repeats: the
  // variants' ops over their summed work time, and the median over variants
  // of setup time and of each episode's event percentiles.
  double work_s = 0.0, ops = 0.0;
  std::vector<double> build_s, p50_s, p99_s;
  for (const Variant& v : per_variant_) {
    if (v.repeats.empty()) continue;
    auto median_of = [&v](double Repeat::*field) {
      std::vector<double> xs;
      for (const Repeat& r : v.repeats) xs.push_back(r.*field);
      return mccs::percentile(std::move(xs), 50.0);
    };
    work_s += median_of(&Repeat::work_s);
    ops += static_cast<double>(v.ops);
    build_s.push_back(median_of(&Repeat::build_s));
    if (v.events > 0) {
      p50_s.push_back(median_of(&Repeat::event_p50_s));
      p99_s.push_back(median_of(&Repeat::event_p99_s));
    }
  }
  if (work_s > 0.0) {
    metric("setup_s", mccs::percentile(build_s, 50.0), "s");
    metric("ops_per_s", ops / work_s, "op/s");
  }
  if (!p50_s.empty()) {
    metric("event_us_p50", mccs::percentile(p50_s, 50.0) * 1e6, "us");
    metric("event_us_p99", mccs::percentile(p99_s, 50.0) * 1e6, "us");
    std::size_t fewest = 0;
    for (const Variant& v : per_variant_) {
      if (v.events > 0 && (fewest == 0 || v.events < fewest)) fewest = v.events;
    }
    metric("episode_events_min", static_cast<double>(fewest), "count");
  }
  metric("peak_rss_mb", rss_mb_, "MiB");
  metric("episodes", static_cast<double>(started_), "count");
  metric("timed_s", timed_s_, "s");

  // Per-layer metrics: span means, ratios, peaks, process counters. A layer
  // the workload never calls reads 0; counters only a workload can read
  // (plan cache, transport, solves) are reported by it and default to 0.
  auto mean = [&](Layer layer, double scale) {
    const LayerTotals& t = tr.totals(layer);
    return t.count == 0 ? 0.0 : t.total_s / static_cast<double>(t.count) * scale;
  };
  const double per_op = total_ops_ > 0 ? 1.0 / static_cast<double>(total_ops_) : 0.0;
  struct Derived {
    const char* name;
    double value;
    const char* unit;
  };
  const Derived derived[] = {
      {"shim.call_us_mean", mean(Layer::kShim, 1e6), "us"},
      {"loop.step_us_mean", mean(Layer::kLoopStep, 1e6), "us"},
      {"loop.drain_ms_mean", mean(Layer::kLoopDrain, 1e3), "ms"},
      {"loop.events_per_op", static_cast<double>(steps_) * per_op, "event/op"},
      {"loop.pending_peak", peaks_[static_cast<std::size_t>(Peak::kLoopPending)], "event"},
      {"netsim.start_flow_us_mean", mean(Layer::kNetStartFlow, 1e6), "us"},
      {"netsim.batch_close_us_mean", mean(Layer::kNetBatchClose, 1e6), "us"},
      {"netsim.pause_resume_us_mean", mean(Layer::kNetPauseResume, 1e6), "us"},
      {"netsim.link_state_us_mean", mean(Layer::kNetLinkState, 1e6), "us"},
      {"netsim.active_flows_peak", peaks_[static_cast<std::size_t>(Peak::kActiveFlows)], "flow"},
      {"policy.rebalance_ms_mean", mean(Layer::kPolicyRebalance, 1e3), "ms"},
      {"policy.link_fault_ms_mean", mean(Layer::kPolicyLinkFault, 1e3), "ms"},
      {"fabric.comm_create_ms_mean", mean(Layer::kFabricCommCreate, 1e3), "ms"},
      {"fabric.comm_destroy_us_mean", mean(Layer::kFabricCommDestroy, 1e6), "us"},
      {"cluster.admission_us_mean", mean(Layer::kClusterAdmission, 1e6), "us"},
      {"cluster.queue_depth_peak", peaks_[static_cast<std::size_t>(Peak::kQueueDepth)], "job"},
      {"transport.sends_per_op", 0.0, "send/op"},
      {"transport.retries", 0.0, "count"},
      {"coll_plan.hit_rate", 0.0, "ratio"},
      {"coll_plan.invalidations", 0.0, "count"},
      {"netsim.solves_per_op", 0.0, "solve/op"},
      {"netsim.batch_width_mean", 0.0, "flow/batch"},
      {"routing.prewarm_s", 0.0, "s"},
      {"proc.user_s", user_s_, "s"},
      {"proc.sys_s", sys_s_, "s"},
      {"proc.threads", static_cast<double>(thread_count()), "thread"},
  };
  for (const Derived& d : derived) {
    if (metrics_.count(d.name) == 0) metric(d.name, d.value, d.unit);
  }
  if (options_.trace && timed_s_ > 0.0) {
    metric("trace.overhead_frac",
           static_cast<double>(tr.spans()) * span_cost_s() / timed_s_, "ratio");
    metric("trace.coverage_frac", tr.covered_s() / timed_s_, "ratio");
  }

  if (options_.trace) {
    std::printf("%-22s %10s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
      const LayerTotals& t = tr.totals(static_cast<Layer>(i));
      std::printf("%-22s %10llu %12.6f %12.6f\n", layer_name(static_cast<Layer>(i)),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    }
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %s %.17g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (!digest_line_.empty()) std::printf("%s\n", digest_line_.c_str());
  const bool correct = failed_ == 0 && total_ops_ > 0;
  std::printf("result correct %d attempted %llu failed %llu\n", correct ? 1 : 0,
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace bench
