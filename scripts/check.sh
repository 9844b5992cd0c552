#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the test suite, the end-to-end
# benchmark's smoke mode (its correctness checks), the chaos sweeps and the
# golden diffs (fig06-10, micro_overhead and the five examples), then run
# the bench binaries and check the schema and gates of their BENCH_*.json
# output with scripts/bench_gates.py (so perf-tracking tooling downstream
# never silently breaks).
#
# SANITIZE=address,undefined ./scripts/check.sh
#   builds the suite under the given sanitizers in a separate build tree
#   (build-san/) and runs ctest there instead; benches are skipped (their
#   timings are meaningless under instrumentation). The chaos fault-injection
#   sweep and a chaos-under-churn run still follow: they hunt memory bugs, not
#   timings, at more seeds than ctest's defaults.
#
# SANITIZE=thread ./scripts/check.sh
#   builds under ThreadSanitizer and runs the parallel-subsystem subset (task
#   pool, collectives, determinism regressions, trimmed seed-parallel netsim
#   property/chaos sweeps) with the pool forced wide (MCCS_THREADS=8) so every
#   cross-thread access pattern actually runs threaded. The full suite is
#   deliberately not run: TSan's ~10x slowdown makes the 1000-seed sweeps
#   prohibitive, and the single-threaded tests have no data races to find.
#
# CHAOS_SEEDS=N (default 100) sizes the seeded random fault-schedule sweep of
# tests/test_chaos_fuzz.cpp run in both modes. CHAOS_CHURN_SEEDS=N (default
# 100) sizes the chaos-under-churn invariant sweep of tests/test_chaos_churn.cpp
# (faults + kills composed with tenant churn; termination, exactly-once,
# zero-orphan quiesce and assignment-identity invariants per seed), which runs
# at MCCS_THREADS=1 and 8 — the seed-parallel sweep must be thread-count
# independent.
#
# Every step (build, ctest, the benchmark smoke, each sweep, each golden pass,
# each bench binary) is run under bash's `time` keyword, which prints its
# wall, user and sys seconds to stderr after the step. The times are
# reported, never gated.
set -euo pipefail

cd "$(dirname "$0")/.."

TIMEFORMAT='-- step time: %3Rs wall, %3Us user, %3Ss sys'

chaos_sweep() {
  local tests_bin="$1"
  local seeds="${CHAOS_SEEDS:-100}"
  echo "== chaos sweep (${seeds} seeds) =="
  time MCCS_CHAOS_SEEDS="${seeds}" "$tests_bin" \
    --gtest_filter='*ChaosFuzz*' --gtest_brief=1
}

chaos_churn_sweep() {
  local tests_bin="$1"
  local seeds="${CHAOS_CHURN_SEEDS:-100}"
  for threads in 1 8; do
    echo "== chaos-under-churn sweep (${seeds} seeds, MCCS_THREADS=${threads}) =="
    time MCCS_THREADS="${threads}" MCCS_CHAOS_CHURN_SEEDS="${seeds}" "$tests_bin" \
      --gtest_filter='*ChaosChurn*:*ControllerRestart*:*IncrementalAssignAudit*' \
      --gtest_brief=1
  done
}

if [[ "${SANITIZE:-}" == "thread" ]]; then
  echo "== sanitizer build: thread =="
  cmake -B build-tsan -S . -DMCCS_SANITIZE=thread >/dev/null
  time cmake --build build-tsan -j "$(nproc)" --target mccs_tests
  echo "== parallel-subsystem tests (TSan, MCCS_THREADS=8) =="
  time MCCS_THREADS=8 MCCS_NETSIM_PROPERTY_SEEDS=40 MCCS_CHAOS_SEEDS=6 \
    MCCS_NETSIM_8K_SEEDS=1 MCCS_CHAOS_CHURN_SEEDS=8 \
    MCCS_NETSIM_BATCH_SEEDS=40 \
    build-tsan/tests/mccs_tests \
    --gtest_filter='*Parallel*:*ChaosFuzz*:*ChaosChurnFuzz*:*NetworkProperties*:*FuzzFixture*:*ReduceBytes*:*Collective*:*NetworkSlab*:*NetsimBatch*' \
    --gtest_brief=1
  echo "ALL CHECKS PASSED (sanitized: thread)"
  exit 0
fi

if [[ -n "${SANITIZE:-}" ]]; then
  echo "== sanitizer build: ${SANITIZE} =="
  cmake -B build-san -S . -DMCCS_SANITIZE="${SANITIZE}" >/dev/null
  time cmake --build build-san -j "$(nproc)" --target mccs_tests
  time (cd build-san && ctest --output-on-failure -j "$(nproc)")
  chaos_sweep build-san/tests/mccs_tests
  # The chaos composition (faults + kills + backpressure + audit fallback)
  # and the controller-restart tests stress exactly the teardown/rebuild
  # lifetimes the sanitizers exist for; a trimmed sweep is seconds-scale even
  # instrumented.
  echo "== chaos-under-churn (sanitized) =="
  time MCCS_CHAOS_CHURN_SEEDS=20 build-san/tests/mccs_tests \
    --gtest_filter='*ChaosChurn*:*ControllerRestart*' \
    --gtest_brief=1
  echo "ALL CHECKS PASSED (sanitized: ${SANITIZE})"
  exit 0
fi

cmake -B build -S . >/dev/null
time cmake --build build -j "$(nproc)"
time (cd build && ctest --output-on-failure -j "$(nproc)")

# Every benchmark workload at ~1/50 size with all its correctness checks:
# exact collective sums, exactly-once completion, and the audit that no
# installed route crosses a failed link (ctl_churn_1k drives the production
# controller under it). A failed check exits non-zero.
echo "== benchmark smoke (correctness checks) =="
time python3 benchmark/run.py --smoke

chaos_sweep build/tests/mccs_tests
chaos_churn_sweep build/tests/mccs_tests

# With telemetry disabled (the default), every simulated result must stay
# byte-identical to the checked-in goldens (fig06-10 and the five examples):
# the telemetry subsystem observes the simulation and must never perturb it.
# Wall-clock output (micro_overhead) is compared on its virtual counters
# only.
#
# The pass runs once: nothing it runs reaches the task pool (no code under
# src/ outside src/common calls par::, and neither do these binaries), so the
# thread count cannot move its output. Thread-count independence is checked
# where the pool runs: the ParallelPool and ParallelDeterminism tests in ctest
# and the chaos-under-churn sweep at MCCS_THREADS=1 and 8.
golden_pass() {
  echo "== telemetry-disabled golden outputs =="
  for fig in fig06_single_app fig07_reconfig fig08_multi_app fig09_qos_jct \
             fig10_dynamic_policy; do
    golden="bench/goldens/${fig}.txt"
    [[ -s "$golden" ]] || { echo "FAIL: $golden missing" >&2; exit 1; }
    (cd build/bench && "./${fig}") > "build/bench/${fig}.out"
    diff -u "$golden" "build/bench/${fig}.out" || {
      echo "FAIL: ${fig} output drifted from ${golden}" >&2; exit 1;
    }
    echo "${fig} matches golden"
  done
  # The five examples' narratives are simulated results too.
  for ex in quickstart training_job dynamic_reconfig multi_tenant_qos \
            moe_expert_parallel; do
    golden="bench/goldens/${ex}.txt"
    [[ -s "$golden" ]] || { echo "FAIL: $golden missing" >&2; exit 1; }
    (cd build/examples && "./${ex}") > "build/examples/${ex}.out"
    diff -u "$golden" "build/examples/${ex}.out" || {
      echo "FAIL: example ${ex} output drifted from ${golden}" >&2; exit 1;
    }
    echo "${ex} matches golden"
  done
  (cd build/bench && ./micro_overhead) 2>/dev/null \
    | grep -o 'BM_[A-Za-z_]*\|VirtualLatencyUs=[0-9.e+-]*\|OverheadUs=[0-9.e+-]*' \
    | paste -d' ' - - > build/bench/micro_overhead_virtual.out
  diff -u bench/goldens/micro_overhead_virtual.txt \
          build/bench/micro_overhead_virtual.out || {
    echo "FAIL: micro_overhead virtual latencies drifted" >&2; exit 1;
  }
  echo "micro_overhead virtual latencies match golden"
}
time golden_pass

# Every bench writes its BENCH_*.json into build/bench; scripts/bench_gates.py
# checks their schema and gates. Files from an earlier run are deleted first,
# so a bench that stops writing its file fails the check instead of passing on
# the last run's numbers.
rm -f build/bench/BENCH_*.json
for bench in micro_flowsim micro_datapath micro_recovery micro_telemetry \
             micro_parallel cluster_day ext_collectives; do
  echo "== ${bench} =="
  time (cd build/bench && "./${bench}")
done
python3 scripts/bench_gates.py build/bench

echo "ALL CHECKS PASSED"
