#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload pool_read_scale --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The first call configures and builds two
copies of perfbench/ (which compiles ../src): a Release build for every
measurement and a POLAR_PROF build for the traced run's profiler domains.
Both land under .bench_build/.

--trace 0 runs the workload in a fresh process again and again for about
--seconds (at least MIN_REPS times), checks every repetition,
checks that all simulated (virtual-time) values agree exactly across the
repetitions, and reports the median of each host-time metric (for
steps_per_s, the fastest measured window of all repetitions).

--trace 1 runs the workload three times, each in its own process: untraced,
traced (spans around every driver call plus a replica world that times the
set-up pieces), and on the profiler build. It reports every per-module
metric, the span tree with self times, and the tracing overhead.

The last line of standard output is the result object; a detailed record of
every process also goes to .bench_build/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BUILDS = {"release": [], "prof": ["-DPOLAR_PROF=ON"]}
MIN_REPS = 3
# Keep one run well under three minutes.
DEADLINE_S = 165.0
PROCESS_TIMEOUT_S = 120.0

# Host-dependent values: real/CPU seconds, resident memory, profiler cycles.
# Everything else a process reports is simulated and must repeat exactly.
HOST_E2E = {"wall_s", "setup_s", "steps_per_s", "steps_mean_per_s",
            "steps_window_s", "peak_rss_mb"}
# Host metrics are medians over the repetitions, except steps_per_s: each
# process reports its fastest measured window and the run reports the
# fastest of those, since host contention only ever slows a window down.
BEST_OF = {"steps_per_s": max}
HOST_LAYER = {"harness.build_load_s", "harness.warmup_s",
              "harness.snapshot_capture_s", "harness.snapshot_rss_mb",
              "harness.snapshot_restore_s", "harness.probe_s",
              "harness.driver_self_s", "sim.measure_s", "sharing.run_s",
              "recovery.run_s"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at src/ next to perfbench/; run from a "
             "full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    binaries = {}
    with open(log, "a") as out:
        for name, flags in BUILDS.items():
            bdir = BUILD_DIR / name
            steps = []
            if not (bdir / "CMakeCache.txt").is_file():
                steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                              "-DCMAKE_BUILD_TYPE=Release"] + flags)
            steps.append(["cmake", "--build", str(bdir), "-j", jobs])
            for cmd in steps:
                r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
                if r.returncode != 0:
                    out.flush()
                    tail = log.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build failed: {' '.join(cmd)}")
            binaries[name] = bdir / "perfbench"
    return binaries


def run_process(binary, workload, seed, traced):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {PROCESS_TIMEOUT_S:.0f} s"
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, f"exit code {r.returncode}: {r.stderr.strip()[-500:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as e:
        return None, f"unparsable report: {e}"


def virtual_values(rec):
    vals = {k: v for k, v in rec["e2e"].items() if k not in HOST_E2E}
    for k, v in rec["layer"].items():
        if k not in HOST_LAYER:
            vals["layer:" + k] = v
    return vals


def compare_virtual(recs, checks, what):
    """Simulated values must be bit-identical across processes."""
    first = virtual_values(recs[0])
    for i, rec in enumerate(recs[1:], start=1):
        other = virtual_values(rec)
        common = sorted(set(first) & set(other))
        diff = [k for k in common if first[k] != other[k]]
        checks.append((f"{what}[{i}]=[0]:virtual", not diff))
        if diff:
            print(f"perfbench: {what} {i} differs from 0 in {diff}",
                  file=sys.stderr)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def print_span_tree(spans):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def walk(parent, depth):
        for s in children.get(parent, []):
            tag = " (derived)" if s["derived"] else ""
            print(f"  {'  ' * depth}{s['name']}{tag}: "
                  f"{s['end'] - s['start']:.4f} s, self {s['self']:.4f} s")
            walk(s["id"], depth + 1)

    walk(-1, 0)


def untraced(binaries, args, e2e_spec, checks, records):
    start = time.monotonic()
    recs = []
    while True:
        # Start another repetition only while it should end, on average,
        # before --seconds are up, so that a run lasts about --seconds.
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(recs) if recs else 0.0
        if len(recs) >= MIN_REPS and elapsed + per_rep / 2 >= args.seconds:
            break
        if elapsed > DEADLINE_S:
            checks.append(("finished_in_time", False))
            break
        rec, err = run_process(binaries["release"], args.workload, args.seed,
                               False)
        if rec is None:
            checks.append((f"rep{len(recs)}:ran", False))
            print(f"perfbench: repetition failed: {err}", file=sys.stderr)
            break
        recs.append(rec)
        checks.extend((f"rep{len(recs) - 1}:{n}", ok)
                      for n, ok in rec["checks"])
    records.extend(recs)
    if not recs:
        return {}
    compare_virtual(recs, checks, "rep")
    metrics = {}
    for m in e2e_spec:
        name = m["name"]
        values = [r["e2e"].get(name, 0.0) for r in recs]
        metrics[name] = BEST_OF.get(name, statistics.median)(values)
    base = recs[0]["e2e"]
    print(f"workload {args.workload}, seed {args.seed}: {len(recs)} "
          f"repetitions, one process each; host metrics are medians, "
          f"steps_per_s the fastest window")
    window_s = statistics.median(r["e2e"]["steps_window_s"] for r in recs)
    mean_rate = statistics.median(r["e2e"]["steps_mean_per_s"] for r in recs)
    bases = {
        "steps_per_s": f"fastest measured window of {len(recs)} processes; "
                       f"all windows: {base['steps_base']:.0f} lane steps / "
                       f"median {window_s:.3f} s = {mean_rate:.6g}/s",
        "sim_p50_us": f"{base['latency_samples']:.0f} samples",
        "sim_p99_us": f"{base['latency_samples']:.0f} samples",
    }
    for m in e2e_spec:
        name = m["name"]
        spread = [r["e2e"].get(name, 0.0) for r in recs]
        note = bases.get(name, "")
        print(f"  {name:14s} {metrics[name]:16.6g} {m['unit']:6s} "
              f"min {min(spread):.6g} max {max(spread):.6g}  {note}")
    return metrics


def traced(binaries, args, layer_spec, checks, records):
    runs = {}
    for tag, build, trace in (("untraced", "release", False),
                              ("traced", "release", True),
                              ("prof", "prof", False)):
        rec, err = run_process(binaries[build], args.workload, args.seed,
                               trace)
        if rec is None:
            checks.append((f"{tag}:ran", False))
            print(f"perfbench: {tag} run failed: {err}", file=sys.stderr)
            return {}
        records.append(rec)
        checks.extend((f"{tag}:{n}", ok) for n, ok in rec["checks"])
        runs[tag] = rec
    # Observation (spans, the profiler build) must not change simulated
    # results.
    compare_virtual(list(runs.values()), checks, "observed")
    plain, tr, prof = runs["untraced"], runs["traced"], runs["prof"]

    values = dict(tr["layer"])
    for domain, d in prof["prof"].items():
        values[f"prof.{domain}_s"] = d["self_s"]
        values[f"prof.{domain}_calls"] = d["calls"]
    for s in tr["spans"]:
        if s["phase"] == s["id"]:
            key = f"phase.{s['name']}_s"
            values[key] = values.get(key, 0.0) + s["end"] - s["start"]
    values["trace.traced_wall_s"] = tr["e2e"]["wall_s"]
    values["trace.overhead_s"] = tr["e2e"]["wall_s"] - plain["e2e"]["wall_s"]

    notes = json.loads((BENCH_DIR / "spec.json").read_text())
    moves = notes.get("per_layer_moves", {})
    print(f"workload {args.workload}, seed {args.seed}: traced run")
    print("spans (real seconds; derived = the driver's own window timing):")
    print_span_tree(tr["spans"])
    metrics = {}
    for m in layer_spec:
        name = m["name"]
        metrics[name] = float(values.get(name, 0.0))
        hint = moves.get(name, "")
        print(f"  {name:34s} {metrics[name]:16.6g} {m['unit']:9s} {hint}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pool_read_scale", "rdma_open_rw",
                             "cxl_write_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    e2e_spec, layer_spec = load_spec()
    binaries = build()
    checks, records = [], []
    if args.trace:
        metrics = traced(binaries, args, layer_spec, checks, records)
        spec = layer_spec
    else:
        metrics = untraced(binaries, args, e2e_spec, checks, records)
        spec = e2e_spec
    if not records:
        fail("no workload process completed")

    host = records[0]["host"]
    print("provenance: " + json.dumps(host, sort_keys=True))
    failed = [n for n, ok in checks if not ok]
    for n in failed:
        print(f"FAILED CHECK {n}", file=sys.stderr)

    results = BUILD_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"records": records, "checks": checks}))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in spec},
    }))


if __name__ == "__main__":
    main()
