// End-to-end benchmark executable: runs one workload per process and prints one
// `metric <name> <value> <unit>` line per metric, the virtual-time digest,
// and a result line. Exits non-zero when any correctness check fails.
//
//   mccs_bench --workload <name> --seed <n> [--seconds <s>] [--trace]
//              [--scale smoke]
//
// Workloads: svc_small, svc_train_churn, netsim_churn_8k, ctl_churn_1k
// (benchmark/README.md describes each and every metric).

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/parallel.h"
#include "mccs_bench/harness.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mccs_bench --workload <svc_small|svc_train_churn|"
               "netsim_churn_8k|ctl_churn_1k> --seed <n> [--seconds <s>] "
               "[--trace] [--scale smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--scale" && has_value &&
               std::strcmp(argv[i + 1], "smoke") == 0) {
      opt.smoke = true;
      ++i;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0.0) return usage();
  if (opt.smoke) opt.seconds = std::min(opt.seconds, 0.2);

  // One thread: the process runs on a few vCPUs of a shared host, where the
  // pool's idle workers (spin, then sleep) compete with the thread doing the
  // work, and the measurement follows the host's scheduler instead of the
  // program. Every workload's simulated results are identical at any pool
  // size (the pool is deterministic), so only host time is affected.
  mccs::par::set_threads(1);

  // Keep freed heap memory in the process. With glibc's default trim and
  // mmap thresholds, memory released after each collective or control event
  // goes back to the kernel and is faulted in again on the next one (30k
  // minor faults per second on svc_small, 10% of its time in the kernel);
  // the cost of those faults on a shared virtual machine varies with the
  // host's memory pressure, far more than the program's own work does.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  void (*workload)(bench::Run&) = nullptr;
  if (opt.workload == "svc_small") {
    workload = bench::run_svc_small;
  } else if (opt.workload == "svc_train_churn") {
    workload = bench::run_svc_train_churn;
  } else if (opt.workload == "netsim_churn_8k") {
    workload = bench::run_netsim_churn;
  } else if (opt.workload == "ctl_churn_1k") {
    workload = bench::run_ctl_churn;
  } else {
    return usage();
  }

  try {
    bench::Run run(opt);
    workload(run);
    return run.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mccs_bench: %s\n", e.what());
    return 3;
  }
}
