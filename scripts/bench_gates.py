#!/usr/bin/env python3
"""Schema and gate check for the BENCH_*.json files the bench binaries write.

Usage: scripts/bench_gates.py [DIR]    (DIR defaults to build/bench)

Each file holds one JSON object per line. TABLE has one row per file: the
field that tells its record kinds apart, the exact key set of each kind, and
the file's gates. The check fails on a missing or empty file, an unknown
kind, a wrong key set, a kind with no records, or a failed gate, so drift
in these files fails here before their consumers (EXPERIMENTS.md, trend
tooling) read it.

A gate is (label, check): check(records by kind, every file's records by
kind) returns what violates the gate, and an empty list passes. A gate that
raises fails too.

BENCH_scale.json's perf rows carry an order-sensitive digest of every flow
completion (id and time bits) at each fabric size. The netsim is
deterministic, so the digests are pinned in bench/goldens/scale_digests.txt
(one "gpus digest" line per size): a change that moves one changed what the
simulator computes.
"""
import json
import math
import pathlib
import sys


def keys(names):
    return frozenset(names.split())


def each(kind, ok):
    """Gate check: every record of `kind` (of every kind when None) satisfies ok."""
    def check(recs, _files):
        return [r for k in ([kind] if kind else recs) for r in recs[k] if not ok(r)]
    return check


def scale_768_vs_flowsim(recs, files):
    ref = [r["events_per_sec"] for r in files["BENCH_flowsim.json"]["incremental"]
           if r["gpus"] == 768]
    perf = [r["events_per_sec"] for r in recs["perf"] if r["gpus"] == 768]
    if ref and perf and perf[0] >= 0.5 * ref[0]:
        return []
    return [{"scale_perf_768": perf, "flowsim_incremental_768": ref}]


SCALE_DIGESTS = (pathlib.Path(__file__).resolve().parents[1]
                 / "bench/goldens/scale_digests.txt")


def perf_digests_match_goldens(recs, _files):
    golden = dict(line.split() for line in SCALE_DIGESTS.read_text().splitlines())
    got = {str(r["gpus"]): r["digest"] for r in recs["perf"]}
    return [{"gpus": g, "digest": got.get(g), "golden": golden.get(g)}
            for g in sorted(golden.keys() | got.keys(), key=int)
            if got.get(g) != golden.get(g)]


def seed_sweep_reaches_2x_at_4_threads(recs, _files):
    sweep = recs["seed_sweep"]
    if sweep[-1]["cores"] < 4 or any(
            r["threads"] == 4 and r["speedup_vs_1thread"] >= 2.0 for r in sweep):
        return []
    return ["seed_sweep"]


def algos_at_every_size(recs, _files):
    sizes = {r["bytes"] for r in recs["algo"]}
    return [size for size in sorted(sizes)
            if {r["algo"] for r in recs["algo"] if r["bytes"] == size}
            != {"ring", "tree", "dbtree", "pairwise"}]


FLOWSIM = keys("bench gpus mode events sim_s wall_s events_per_sec "
               "speedup_vs_reference")
RECOVERY = keys("bench mode gpus bytes healthy_iter_s disrupted_iter_s "
                "degraded_iter_s time_to_detect_s time_to_recover_s "
                "goodput_retained retries escalations comms_reconfigured "
                "bit_correct")
TELEMETRY = keys("bench mode reps collectives min_wall_s mean_wall_s "
                 "timeline_events timeline_bytes metrics_instruments")
CLUSTER = keys("bench scale gpus mode seed events jobs admitted queued_peak "
               "goodput mean_closure_items solves_per_event mean_batch_width "
               "p50_us p99_us p999_us mean_us speedup_p99_vs_full "
               "assignments_identical")

# (file, kind field, {kind: key set}, [(label, check)])
TABLE = [
    ("BENCH_flowsim.json", "mode",
     {"reference": FLOWSIM, "incremental": FLOWSIM}, []),
    ("BENCH_scale.json", "kind", {
        "perf": keys("bench kind gpus events sim_s wall_s events_per_sec "
                     "digest solves_per_event mean_batch_width "
                     "flows_per_solve links_per_solve labels_per_solve "
                     "rounds_per_solve completions_per_solve timed_solves "
                     "discover_us solve_us schedule_us refresh_us epoch_us "
                     "route_prewarm_s"),
        "identity": keys("bench kind gpus identical_to_reference "
                         "verify_events hot_bytes param_bytes cold_bytes "
                         "bytes_per_flow_state"),
        "coalesce": keys("bench kind gpus events solves_batched "
                         "solves_unbatched solves_per_event_batched "
                         "solves_per_event_unbatched mean_batch_width "
                         "reduction digest_identical"),
    }, [
        ("every kind at 768, 8192 and 32768 GPUs", lambda recs, _: [
            k for k, rs in recs.items()
            if {r["gpus"] for r in rs} != {768, 8192, 32768}]),
        ("identical_to_reference",
         each("identity", lambda r: r["identical_to_reference"] is True)),
        ("perf digests equal bench/goldens/scale_digests.txt",
         perf_digests_match_goldens),
        ("digest_identical",
         each("coalesce", lambda r: r["digest_identical"] is True)),
        ("solves_batched <= solves_unbatched",
         each("coalesce", lambda r: r["solves_batched"] <= r["solves_unbatched"])),
        ("8k reduction >= 3.0",
         each("coalesce", lambda r: r["gpus"] != 8192 or r["reduction"] >= 3.0)),
        ("8k events_per_sec >= 20000",
         each("perf", lambda r: r["gpus"] != 8192 or r["events_per_sec"] >= 20000)),
        ("perf labels_per_solve >= 1, completions_per_solve <= flows_per_solve",
         each("perf", lambda r: r["labels_per_solve"] >= 1
              and r["completions_per_solve"] <= r["flows_per_solve"])),
        ("768 perf events_per_sec >= 0.5x BENCH_flowsim.json's 768 incremental",
         scale_768_vs_flowsim),
    ]),
    ("BENCH_datapath.json", "section", {
        "plan": keys("bench section kind count channels cold_ns warm_ns "
                     "speedup"),
        "reduce": keys("bench section dtype op bytes scalar_gbps vector_gbps "
                       "speedup"),
        "e2e": keys("bench section host_ns_per_collective hit_rate"),
    }, [
        ("plan speedup >= 3", each("plan", lambda r: r["speedup"] >= 3.0)),
        ("f32-sum reduce speedup >= 2", each("reduce", lambda r: (
            (r["dtype"], r["op"]) != ("f32", "sum") or r["speedup"] >= 2.0))),
    ]),
    ("BENCH_recovery.json", "mode",
     {"rehash": RECOVERY, "reconfig": RECOVERY}, [
        ("bit_correct", each(None, lambda r: r["bit_correct"] is True)),
        ("detect and recover times finite and > 0", each(None, lambda r: all(
            0.0 < r[k] < math.inf
            for k in ("time_to_detect_s", "time_to_recover_s")))),
        ("reconfig goodput_retained >= 0.5",
         each("reconfig", lambda r: r["goodput_retained"] >= 0.5)),
        ("reconfig comms_reconfigured >= 1",
         each("reconfig", lambda r: r["comms_reconfigured"] >= 1)),
    ]),
    ("BENCH_telemetry.json", "mode", {
        "off": TELEMETRY, "on": TELEMETRY,
        "summary": keys("bench mode overhead_frac virtual_identical "
                        "chrome_trace_bytes"),
    }, [
        ("off records 0 timeline events",
         each("off", lambda r: r["timeline_events"] == 0)),
        ("on records > 0 timeline events",
         each("on", lambda r: r["timeline_events"] > 0)),
        ("virtual_identical",
         each("summary", lambda r: r["virtual_identical"] is True)),
        ("overhead_frac <= 0.10",
         each("summary", lambda r: r["overhead_frac"] <= 0.10)),
        ("chrome_trace_bytes > 0",
         each("summary", lambda r: r["chrome_trace_bytes"] > 0)),
    ]),
    ("BENCH_parallel.json", "section", {
        "dispatch": keys("bench section threads cores ns_per_dispatch"),
        "seed_sweep": keys("bench section threads cores seeds reps wall_s "
                           "speedup_vs_1thread"),
    }, [
        ("with >= 4 cores, seed_sweep reaches >= 2x at 4 threads",
         seed_sweep_reaches_2x_at_4_threads),
    ]),
    ("BENCH_cluster.json", "mode", {"full": CLUSTER, "incremental": CLUSTER}, [
        ("p50_us <= p99_us <= p999_us",
         each(None, lambda r: r["p50_us"] <= r["p99_us"] <= r["p999_us"])),
        ("incremental assignments_identical",
         each("incremental", lambda r: r["assignments_identical"] is True)),
        ("speedup_p99_vs_full >= 3 at >= 1024 GPUs", each("incremental", lambda r: (
            r["gpus"] < 1024 or r["speedup_p99_vs_full"] >= 3.0))),
    ]),
    ("BENCH_chaos.json", "bench", {
        "chaos_churn": keys("bench mode gpus seeds events retention_mean "
                            "violations divergent_events audits "
                            "audit_mismatches fallbacks kills rejected "
                            "deferred duplicate_departures"),
        "chaos_summary": keys("bench retention_reconfig retention_rehash "
                              "loss_ratio_rehash_vs_reconfig violations"),
        "chaos_soak": keys("bench gpus quarters virtual_hours events "
                           "solves_per_event violations divergent_events audits "
                           "audit_mismatches fallbacks poisons_engaged "
                           "poisons_healed rss_q1_mib rss_end_mib "
                           "rss_growth_frac registry_size registry_growth"),
    }, [
        ("sweep modes are reconfig and rehash", lambda recs, _: sorted(
            {r["mode"] for r in recs["chaos_churn"]} ^ {"reconfig", "rehash"})),
        ("0 violations", each(None, lambda r: r["violations"] == 0)),
        ("loss ratio >= 2", each("chaos_summary", lambda r: (
            r["loss_ratio_rehash_vs_reconfig"] >= 2.0))),
        ("soak poisons_engaged >= 1",
         each("chaos_soak", lambda r: r["poisons_engaged"] >= 1)),
        ("soak poisons_healed",
         each("chaos_soak", lambda r: r["poisons_healed"] is True)),
        ("soak rss_growth_frac <= 0.25",
         each("chaos_soak", lambda r: r["rss_growth_frac"] <= 0.25)),
        ("soak registry_size <= 8",
         each("chaos_soak", lambda r: r["registry_size"] <= 8)),
        ("soak registry_growth == 0",
         each("chaos_soak", lambda r: r["registry_growth"] == 0)),
    ]),
    ("BENCH_compiler.json", "section", {
        "algo": keys("bench section kind algo bytes sim_us busbw_gbps"),
        "selection": keys("bench section kind bytes selected "
                          "model_selected_us model_ring_us sim_selected_us "
                          "sim_ring_us"),
    }, [
        ("all four algorithms at every size", algos_at_every_size),
        ("every *_us > 0", each(None, lambda r: all(
            v > 0 for k, v in r.items() if k.endswith("_us")))),
        ("selection is the model argmin", each("selection", lambda r: (
            r["model_selected_us"] <= r["model_ring_us"]))),
        ("a non-ring pick wins in simulation", lambda recs, _: [] if any(
            r["selected"] != "ring" and r["sim_selected_us"] < r["sim_ring_us"]
            for r in recs["selection"]) else ["none"]),
    ]),
]


def load(path, field, kinds):
    """The file's records grouped by kind; raises ValueError on a schema error."""
    if not path.is_file() or path.stat().st_size == 0:
        raise ValueError("missing or empty")
    recs = {kind: [] for kind in kinds}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = rec.get(field) if isinstance(rec, dict) else None
        if kind not in kinds:
            raise ValueError(f"line {n}: unknown {field} {kind!r}")
        if set(rec) != kinds[kind]:
            raise ValueError(f"line {n}: {kind} keys missing "
                             f"{sorted(kinds[kind] - set(rec))}, extra "
                             f"{sorted(set(rec) - kinds[kind])}")
        recs[kind].append(rec)
    empty = [kind for kind, rs in recs.items() if not rs]
    if empty:
        raise ValueError(f"no {field} {empty} records")
    return recs


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parents[1] / "build/bench")
    files, failures = {}, []
    for name, field, kinds, gates in TABLE:
        try:
            files[name] = recs = load(root / name, field, kinds)
        except ValueError as e:
            failures.append(f"{name}: {e}")
            continue
        bad = len(failures)
        for label, check in gates:
            try:
                violations = check(recs, files)
            except Exception as e:  # a gate that cannot be evaluated fails
                violations = [repr(e)]
            if violations:
                failures.append(f"{name}: gate '{label}' fails: "
                                + "; ".join(map(json.dumps, violations)))
        if len(failures) == bad:
            print(f"{name} OK ({sum(map(len, recs.values()))} records, "
                  f"{len(gates)} gates)")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"bench gates OK ({len(TABLE)} files)")


if __name__ == "__main__":
    main()
