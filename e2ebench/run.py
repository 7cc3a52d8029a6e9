#!/usr/bin/env python3
"""The DfMS benchmark's entry point.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `e2ebench` binary from source (release profile, into
$CARGO_TARGET_DIR or e2ebench/target), runs one repetition of the
workload per process — as many as fit in --seconds on the reference
host — and pools their raw samples into the metrics named in
BENCHMARK.json. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from traced repetitions interleaved with untraced ones
(their wall-time difference is the tracing overhead). Noise diagnostics
and, for traced runs, the per-layer ledger go to standard error.

Before and after every repetition, the host probe (`e2ebench-probe`, a
fixed computation that uses none of the repository's code) runs in a
process of its own; see `end_to_end`.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Wall seconds one repetition takes on the reference host (2 cores),
# set-up included. --seconds divides by this to get the repetition
# count; the work inside a repetition never depends on the clock.
REP_SECONDS = {
    "wire_journaled": 2.9,
    "history_soak": 3.0,
    "fabric_federated": 3.1,
}

# Median time of one host-probe pass (`src/bin/probe.rs`) on the
# reference host. End-to-end times are reported at this host speed; see
# `end_to_end`.
REFERENCE_PROBE_MS = 12.0

# Workloads whose end-to-end times are scaled by the host probe; see
# `end_to_end`.
PROBE_SCALED = {"history_soak", "fabric_federated"}

# The measuring part of a run (after the build) must end within this;
# a repetition still running at the deadline is killed and the run fails.
RUN_DEADLINE_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark and probe binaries; return their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    release = os.path.join(ROOT, target, "release")
    return os.path.join(release, "e2ebench"), os.path.join(release, "e2ebench-probe")


def run_child(cmd, what, deadline):
    """Run one child process to completion; return its standard output."""
    try:
        left = max(1.0, deadline - time.monotonic())
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{what} still running {RUN_DEADLINE_S}s after the run started")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{what} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{what} printed nothing")
    return lines


def run_rep(binaries, workload, seed, trace, run_dir, deadline):
    """Run one repetition in its own process, between two host probes;
    return its parsed record with the probe passes as `probe_s`."""
    binary, probe = binaries
    probe_s = [float(x) for x in run_child([probe], "host probe", deadline)]
    cmd = [binary, workload, "--seed", str(seed), "--trace", "1" if trace else "0", "--dir", run_dir]
    rep = json.loads(run_child(cmd, f"{workload} repetition", deadline)[-1])
    probe_s += [float(x) for x in run_child([probe], "host probe", deadline)]
    rep["probe_s"] = probe_s
    return rep


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, what):
    """The 99th percentile, provided at least ten samples lie beyond it."""
    beyond = len(values) - math.ceil(0.99 * len(values))
    if beyond < 10:
        fail(f"{what}: only {beyond} samples beyond p99 (of {len(values)})")
    return percentile(values, 99)


def quarters(rep):
    """(early, late) windows of one repetition: first and last quarter."""
    windows = rep["windows"]
    q = max(1, len(windows) // 4)
    return windows[:q], windows[-q:]


def speed_metrics(reps, scale):
    """The time and rate metrics, pooled over `reps`, each repetition's
    times multiplied (rates: divided) by `scale(rep)`."""
    early, late, windows, submit, query, setup = [], [], [], [], [], []
    for rep in reps:
        k = scale(rep)
        e, l = quarters(rep)
        early += [w[2] / w[1] * 1e6 * k for w in e]
        late += [w[2] / w[1] * 1e6 * k for w in l]
        windows += [w[0] / w[2] / k for w in rep["windows"]]
        submit += [x * k for x in rep["submit_ms"]]
        query += [x * k for x in rep["query_ms"]]
        setup += [x * k for x in rep["setup_s"]]
    return {
        "setup_s": statistics.median(setup),
        "flows_per_s": statistics.median(windows),
        "submit_p50_ms": statistics.median(submit),
        "submit_p99_ms": tail_percentile(submit, "submit latency"),
        "query_p50_ms": statistics.median(query),
        "query_p99_ms": tail_percentile(query, "query latency"),
        "early_step_us": statistics.median(early),
        "late_step_us": statistics.median(late),
    }


def end_to_end(workload, reps):
    """The end-to-end metrics, pooled over untraced repetitions.

    On PROBE_SCALED workloads, times and rates are scaled to the
    reference host speed: each repetition's are multiplied (rates:
    divided) by REFERENCE_PROBE_MS over the median of the host probes
    run right before and after it. The host's speed drifted by up to
    ±20% over minutes on the reference host; on the single-threaded
    in-process workloads the scaling takes most of that drift out of the
    comparison between runs. The probe runs in a fresh process with the
    system allocator and none of the repository's code, so a change to
    the program does not move it. `wire_journaled`, which hands every
    request between threads and waits for fsyncs, did not follow the
    probe, and scaling only added the probe's own noise, so its times
    are reported as measured. The unscaled values go to stderr.
    """
    probe_ms = lambda rep: statistics.median(rep["probe_s"]) * 1e3
    unscaled = speed_metrics(reps, lambda rep: 1.0)
    if workload in PROBE_SCALED:
        metrics = speed_metrics(reps, lambda rep: REFERENCE_PROBE_MS / probe_ms(rep))
    else:
        metrics = dict(unscaled)
    count = lambda key: sum(len(r[key]) for r in reps)
    print(f"  samples: {count('submit_ms')} submits, {count('query_ms')} queries, "
          f"{count('windows')} windows", file=sys.stderr)
    print(f"  host probe median {statistics.median(probe_ms(r) for r in reps):.3f}ms "
          f"(reference {REFERENCE_PROBE_MS}ms), unscaled: "
          + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()), file=sys.stderr)
    metrics.update({
        "history_slope": metrics["late_step_us"] / metrics["early_step_us"],
        "rss_per_flow_kb": statistics.median(
            (r["rss_late_kb"] - r["rss_early_kb"]) / r["flows_between"] for r in reps
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in reps),
    })
    return metrics


def per_layer(traced, untraced, names):
    """Per-layer metrics: medians over traced repetitions, except the
    ledger rows, which are means so that they still sum to the wall."""
    wall = lambda reps: statistics.fmean(r["wall_s"] for r in reps)
    out = {"ledger.trace_overhead_s": wall(traced) - wall(untraced)}
    missing = []
    for name in names:
        if name in out:
            continue
        values = [r["layer"][name] for r in traced if name in r["layer"]]
        if name.startswith("ledger."):
            out[name] = statistics.fmean(r["layer"].get(name, 0.0) for r in traced)
        elif values:
            out[name] = statistics.median(values)
        else:
            missing.append(name)
            out[name] = 0.0
    if missing:
        print(f"  layers not exercised by this workload (reported as 0): {', '.join(missing)}", file=sys.stderr)
    unknown = sorted({k for r in traced for k in r["layer"]} - set(names))
    if unknown:
        fail(f"the binary reports metrics BENCHMARK.json does not name: {unknown}")
    return out


def check_ledger(rep):
    """Count a failed check on a traced repetition whose ledger has a
    negative row. The rows sum to the wall by construction (unattributed
    is the rest), so double-counted time shows as a row below zero."""
    rep["attempted"] += 1
    negative = {k: v for k, v in rep["layer"].items() if k.startswith("ledger.") and v < 0}
    if negative:
        rep["failed"] += 1
        rep["failures"].append(f"ledger rows below zero: {negative}")


def print_ledger(metrics, workload):
    rows = [(k[len("ledger."):-len("_s")], v) for k, v in metrics.items()
            if k.startswith("ledger.") and k not in ("ledger.wall_s", "ledger.trace_overhead_s")]
    wall = metrics["ledger.wall_s"]
    print(f"  ledger ({workload}, measured phase, mean per repetition):", file=sys.stderr)
    for layer, secs in rows:
        print(f"    {layer:<13} {secs:9.4f} s  {100 * secs / wall:5.1f}%", file=sys.stderr)
    print(f"    {'sum':<13} {sum(v for _, v in rows):9.4f} s  (wall {wall:.4f} s)", file=sys.stderr)
    print(f"    tracing overhead {metrics['ledger.trace_overhead_s']:+.4f} s", file=sys.stderr)


def print_noise(rep):
    n = rep["noise"]
    print(
        f"  rep: wall {rep['wall_s']:.3f}s setup {[round(s, 4) for s in rep['setup_s']]} "
        f"runq-wait {n['runq_wait_ms']:.1f}ms steal {100 * n['steal_share']:.1f}% "
        f"minflt {n['minor_faults']} host-probe {1e3 * statistics.median(rep['probe_s']):.2f}ms",
        file=sys.stderr,
    )
    for line in rep["failures"]:
        print(f"  FAILED: {line}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    binaries = build()
    reps = max(1, round(args.seconds / REP_SECONDS[args.workload]))
    # A traced run pairs each traced repetition with an untraced one and
    # so runs half as many of each, to take as long as an untraced run.
    if args.trace:
        reps = max(1, reps // 2)
    run_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    try:
        untraced, traced = [], []
        for _ in range(reps):
            untraced.append(run_rep(binaries, args.workload, args.seed, False, run_dir, deadline))
            print_noise(untraced[-1])
            if args.trace:
                traced.append(run_rep(binaries, args.workload, args.seed, True, run_dir, deadline))
                check_ledger(traced[-1])
                print_noise(traced[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"  {args.workload}: {reps} repetition(s) in {time.monotonic() - started:.1f}s", file=sys.stderr)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(traced, untraced, names)
        print_ledger(values, args.workload)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(args.workload, untraced)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    all_reps = untraced + traced
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
