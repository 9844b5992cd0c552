#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One run (the form BENCHMARK.json's command uses):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds benchmark/ into build/benchmark/ when needed, runs one workload in a
fresh process, passes its report through, and prints as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list.

Summary over repetitions:

    python3 benchmark/run.py --repeat 5 [--seconds 10]

runs every workload listed in BENCHMARK.json N times (seeds 1..N) plus one
traced run, then prints each metric's median, quartiles, spread and bound,
the per-seed virtual digests (identical across invocations on unchanged
behaviour) and the tracing overhead (traced vs untraced ops_per_s).

    python3 benchmark/run.py --smoke

runs every workload at ~1/50 size with all checks on (a few seconds).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "benchmark")
BUILD_DIR = os.path.join(ROOT, "build", "benchmark")
BINARY = os.path.join(BUILD_DIR, "mccs_bench")
# A single run must finish within 180 s; the timed phase is at most 60 s.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally. Build output goes to stderr
    so stdout carries only the report."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_once(workload, seed, seconds, trace=False, smoke=False):
    """Run mccs_bench once; returns its parsed report (None on a crash)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd += ["--scale", "smoke"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    report = {"lines": proc.stdout.splitlines(), "metrics": {}, "digest": None,
              "result": None}
    for line in report["lines"]:
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 4:
            report["metrics"][fields[1]] = (float(fields[2]), fields[3])
        elif fields[:1] == ["virt_digest"]:
            report["digest"] = " ".join(fields[1:])
        elif fields[:1] == ["result"] and len(fields) == 7:
            report["result"] = {"correct": fields[2] == "1",
                                "attempted": int(fields[4]),
                                "failed": int(fields[6])}
    if report["result"] is None:
        print(f"{workload}: no result (exit code {proc.returncode})", file=sys.stderr)
        return None
    return report


def single_run(args, spec):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not build():
        return 1
    report = run_once(args.workload, args.seed, args.seconds, trace=args.trace == 1)
    if report is None:
        return 1
    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in report["metrics"]:
            print(f"{args.workload}: metric {m['name']} missing", file=sys.stderr)
            return 1
        value, unit = report["metrics"][m["name"]]
        if unit != m["unit"]:
            print(f"{m['name']}: unit {unit} != {m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}
    for line in report["lines"]:
        print(line)
    result = dict(report["result"])
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(args, spec):
    if not build():
        return 1
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.repeat):
            report = run_once(workload, args.seed + i, args.seconds)
            if report is None:
                return 1
            runs.append(report)
        traced = run_once(workload, args.seed, args.seconds, trace=True)
        if traced is None:
            return 1
        print(f"\n== {workload}: {args.repeat} runs x {args.seconds} s "
              f"(seeds {args.seed}..{args.seed + args.repeat - 1}) + 1 traced run")
        print(f"{'metric':<28} {'unit':<10} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'iqr/med':>8} {'bound':>6}")
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name][0] for r in runs if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <- spread above bound/3"
            print(f"{name:<28} {runs[0]['metrics'][name][1]:<10} {med:>14.6g} "
                  f"{q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        failed = sum(r["result"]["failed"] for r in runs + [traced])
        attempted = sum(r["result"]["attempted"] for r in runs + [traced])
        print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
        for i, r in enumerate(runs):
            print(f"seed {args.seed + i}: virt_digest {r['digest']}")
        untraced = statistics.median(r["metrics"]["ops_per_s"][0] for r in runs)
        overhead = 1.0 - traced["metrics"]["ops_per_s"][0] / untraced
        print(f"trace.overhead (traced vs untraced median ops_per_s): {overhead:.4f}")
        print("traced per-layer metrics:")
        for m in spec["per_layer"]:
            value, unit = traced["metrics"].get(m["name"], (float("nan"), m["unit"]))
            print(f"  {m['name']:<30} {value:>14.6g} {unit}")
        ok = ok and failed == 0
    return 0 if ok else 1


def smoke(spec):
    if not build():
        return 1
    ok = True
    for w in spec["workloads"]:
        report = run_once(w["name"], 1, 0.2, smoke=True)
        correct = report is not None and report["result"]["correct"]
        print(f"{w['name']:<18} {'ok' if correct else 'FAILED'}")
        ok = ok and correct
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        return smoke(spec)
    if args.repeat > 0:
        return summary(args, spec)
    if args.workload:
        return single_run(args, spec)
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
