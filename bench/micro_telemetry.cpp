// Microbenchmark: host-side cost of the telemetry subsystem.
//
// Telemetry must be free when disabled and cheap when enabled. This bench
// runs the micro_overhead scenario (testbed cluster, one cross-rack 4 KB
// AllReduce relaunched back to back) with the timeline sampler off and on,
// alternating modes across repetitions so machine noise hits both equally,
// and reports:
//
//   * virtual_identical — the simulated per-iteration latencies of the two
//     modes compared bit for bit. Telemetry only *observes* the simulation,
//     so any drift here is a correctness bug, not an overhead question;
//   * overhead_frac — (min enabled wall - min disabled wall) / min disabled
//     wall over the repetitions. Min-of-reps because host timing noise is
//     one-sided (preemption only ever slows a rep down);
//   * the enabled mode's recording volume (timeline events, retained bytes,
//     Chrome trace JSON size) so the cost has a denominator.
//
// Emits one JSON line per mode plus a summary line to BENCH_telemetry.json;
// scripts/check.sh gates on the schema, on virtual_identical, and on
// overhead_frac <= 0.10.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "cluster/cluster.h"
#include "common.h"
#include "mccs/trace_export.h"

namespace {

using namespace mccs;

constexpr int kReps = 9;     // alternating off/on repetitions per mode
constexpr int kLoops = 150;  // timed collective loops per repetition
constexpr int kWarmupIters = 2;
constexpr int kIters = 6;  // measured iterations per loop (8 launches total)

struct RepResult {
  double min_loop_s = 0.0;  ///< fastest single timed loop in this rep
  double wall_s = 0.0;      ///< total timed wall across all loops
  std::vector<Time> virtual_durations;  ///< first timed loop's iterations
  std::uint64_t timeline_events = 0;
  std::size_t timeline_bytes = 0;
  std::size_t chrome_trace_bytes = 0;
  std::size_t metrics_instruments = 0;
};

RepResult run_rep(bool enabled) {
  bench::Harness h =
      bench::make_harness(bench::Scheme::kMccsNoFa, cluster::make_testbed(), 1);
  h.fabric->telemetry().set_enabled(enabled);
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{4}};
  const CommId comm = bench::bench_create_comm(*h.fabric, app, gpus);

  // Buffers and streams are set up here, once, so the timed loops run
  // collectives only.
  bench::CollectiveLoop collectives(*h.fabric, app, gpus, comm,
                                    coll::CollectiveKind::kAllReduce, 4_KB);
  auto loop_once = [&] { return collectives.run(kWarmupIters, kIters); };
  loop_once();  // connection setup + plan cache, outside the timer

  // Each ~40 us loop is timed individually and the per-rep minimum kept:
  // preemption or a frequency dip inflates some loops, and the minimum
  // discards those outright where one long timed region would absorb them.
  RepResult res;
  res.min_loop_s = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kLoops; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto durations = loop_once();
    const auto t1 = std::chrono::steady_clock::now();
    if (i == 0) res.virtual_durations = std::move(durations);
    const double loop_s = std::chrono::duration<double>(t1 - t0).count();
    res.min_loop_s = std::min(res.min_loop_s, loop_s);
    res.wall_s += loop_s;
  }

  res.timeline_events = h.fabric->telemetry().timeline().event_count();
  res.timeline_bytes = h.fabric->telemetry().timeline().approximate_bytes();
  res.metrics_instruments = h.fabric->telemetry().metrics().size();
  if (enabled) {
    res.chrome_trace_bytes = svc::chrome_trace_json(*h.fabric).size();
  }
  return res;
}

bool bitwise_equal(const std::vector<Time>& a, const std::vector<Time>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Time)) == 0);
}

}  // namespace

int main() {
  std::printf("=== micro_telemetry: telemetry-enabled overhead ===\n\n");

  double min_loop[2] = {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity()};
  double sum_wall[2] = {0.0, 0.0};
  RepResult last[2];
  bool virtual_identical = true;
  std::vector<Time> reference;

  // Alternate modes so slow host intervals (preemption, thermal) are equally
  // likely to land on either; min-of-loops then discards them entirely.
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool enabled : {false, true}) {
      RepResult r = run_rep(enabled);
      const int m = enabled ? 1 : 0;
      min_loop[m] = std::min(min_loop[m], r.min_loop_s);
      sum_wall[m] += r.wall_s;
      if (reference.empty()) {
        reference = r.virtual_durations;
      } else {
        virtual_identical =
            virtual_identical && bitwise_equal(reference, r.virtual_durations);
      }
      last[m] = std::move(r);
    }
  }

  // Fastest-loop extrapolation for the reported wall, so both modes are
  // compared at their noise-free best.
  const double min_wall[2] = {min_loop[0] * kLoops, min_loop[1] * kLoops};
  const double overhead_frac = (min_loop[1] - min_loop[0]) / min_loop[0];
  const int collectives = kLoops * (kWarmupIters + kIters);

  std::printf("%-9s %12s %12s %10s %12s %14s\n", "mode", "min wall(s)",
              "mean wall(s)", "events", "bytes", "instruments");
  for (const int m : {0, 1}) {
    std::printf("%-9s %12.4f %12.4f %10llu %12zu %14zu\n",
                m == 0 ? "off" : "on", min_wall[m], sum_wall[m] / kReps,
                static_cast<unsigned long long>(last[m].timeline_events),
                last[m].timeline_bytes, last[m].metrics_instruments);
  }
  std::printf("\noverhead_frac=%.4f  virtual_identical=%s  trace_json=%zuB\n",
              overhead_frac, virtual_identical ? "yes" : "NO",
              last[1].chrome_trace_bytes);

  std::FILE* json = std::fopen("BENCH_telemetry.json", "w");
  MCCS_CHECK(json != nullptr, "cannot open BENCH_telemetry.json");
  for (const int m : {0, 1}) {
    std::fprintf(
        json,
        "{\"bench\":\"micro_telemetry\",\"mode\":\"%s\",\"reps\":%d,"
        "\"collectives\":%d,\"min_wall_s\":%.9f,\"mean_wall_s\":%.9f,"
        "\"timeline_events\":%llu,\"timeline_bytes\":%zu,"
        "\"metrics_instruments\":%zu}\n",
        m == 0 ? "off" : "on", kReps, collectives, min_wall[m],
        sum_wall[m] / kReps,
        static_cast<unsigned long long>(last[m].timeline_events),
        last[m].timeline_bytes, last[m].metrics_instruments);
  }
  std::fprintf(json,
               "{\"bench\":\"micro_telemetry\",\"mode\":\"summary\","
               "\"overhead_frac\":%.6f,\"virtual_identical\":%s,"
               "\"chrome_trace_bytes\":%zu}\n",
               overhead_frac, virtual_identical ? "true" : "false",
               last[1].chrome_trace_bytes);
  std::fclose(json);
  std::printf("BENCH_telemetry.json written (one line per mode + summary).\n");
  return virtual_identical ? 0 : 1;
}
