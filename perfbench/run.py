#!/usr/bin/env python3
"""carrierstream benchmark: closed-loop workloads timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20          # every workload, one process each

`--trace 0` measures the end-to-end metrics with no instrumentation;
`--trace 1` runs a reference slice untraced, repeats it with spans
recorded around every public entry point, and reports per-layer
metrics. Metric names and units come from BENCHMARK.json. The last line
of output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--out FILE` also appends the full record (environment stamp and sample
counts included) to FILE as one JSON line, for `perfbench/compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_REPEATS = 7
REFERENCE_SHARE = 0.3  # share of --seconds the traced run spends on its untraced reference
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", help="a workload name from BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repo", default=".", help="checkout whose src/carrierstream is measured")
    p.add_argument("--out", default=None, help="append the full result record to this JSONL file")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    OpenBLAS threads spin while they wait for work. On a 2-core machine
    with one other busy process, two BLAS threads made the dialogue
    set-up 30-70x slower than one, so every run uses one thread.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit(repo: str) -> str:
    if not os.path.exists(os.path.join(repo, ".git")):
        return "unknown (not a git checkout)"  # never let git find an enclosing repository
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(args.repo),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def measure_untraced(w, h, args) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w.setup(args.seed, h)
        setup_s.append(time.perf_counter() - t0)
    deadline = time.perf_counter() + args.seconds
    number = 0
    while number == 0 or time.perf_counter() < deadline:
        w.run_unit(h, number, deadline)
        number += 1
    rss = peak_rss_mib()  # read before the oracle checks, whose dense passes are not the workload's
    w.final_check(h)
    if not w.lat_ns:
        return {}
    values = w.end_to_end()
    values["setup_s"] = (statistics.median(setup_s), len(setup_s))
    values["rss_peak_mib"] = (rss, 1)
    w.notes["units"] = number
    return values


def measure_traced(w, h, args) -> dict:
    import carrierstream as cs
    import spans

    w.setup(args.seed, h)
    t0 = time.perf_counter()
    units = 0
    while units == 0 or time.perf_counter() - t0 < REFERENCE_SHARE * args.seconds:
        w.run_unit(h, units, float("inf"))
        units += 1
    untraced_ns = h.measured_ns

    rec = spans.SpanRecorder()
    rec.install()
    try:
        w.flops = cs.FlopCounter(w.config)
        rec.phase, rec.active = spans.PHASE_SETUP, True
        w.setup(args.seed, h)
        rec.phase, rec.active = spans.PHASE_WORK, False
        h.tracer, h.measured_ns = rec, 0
        for number in range(units):
            w.run_unit(h, number, float("inf"))
        traced_ns = h.measured_ns
    finally:
        h.tracer = None
        rec.uninstall()
    w.flops = None
    w.setup(args.seed, h)  # the heap probe and the checks run on sessions without a FlopCounter

    retained = w.retained_kib(h)
    w.final_check(h)
    w.notes["units"] = units
    metrics, ops = spans.layer_metrics(rec, w, traced_ns / max(untraced_ns, 1) - 1.0, retained)
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json.gz")
    rec.write(path)
    w.notes["spans"] = len(rec.start)
    w.notes["spans_file"] = os.path.relpath(path)
    return {name: (value, ops) for name, value in metrics.items()}


def run_one(args, spec) -> int:
    src = os.path.join(os.path.abspath(args.repo), "src")
    if not os.path.isfile(os.path.join(src, "carrierstream", "__init__.py")):
        print(f"error: no carrierstream package under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, src)
    import numpy as np
    import carrierstream

    if not os.path.abspath(carrierstream.__file__).startswith(src + os.sep):
        print(f"error: imported carrierstream from {carrierstream.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    env = environment(args, np)
    w = workloads.make(args.workload)
    h = workloads.Harness()
    values = measure_traced(w, h, args) if args.trace else measure_untraced(w, h, args)
    if not values:
        print(f"error: no {w.op} completed; first failures:\n" + "\n".join(h.errors), file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, unlisted {extra}",
              file=sys.stderr)
        return 1

    why = next(x["why"] for x in spec["workloads"] if x["name"] == args.workload)
    print(f"carrierstream benchmark: {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"why: {why}")
    print(f"op: {w.op}; unit of work: {w.unit} (x{w.notes.get('units')})")
    print("env: " + json.dumps(env, sort_keys=True))
    width = max(len(n) for n in units)
    for name in units:
        value, samples = values[name]
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]:<8} n={samples}")
    share = h.failed / h.attempted if h.attempted else 0.0
    print(f"  {'failed_share':<{width}}  {share:>14.6g} {'ratio':<8} n={h.attempted}")
    print("notes: " + json.dumps(w.notes, sort_keys=True))
    for error in h.errors:
        print("failure: " + error.strip().replace("\n", " | "))

    metrics = {name: {"value": float(values[name][0]), "unit": units[name]} for name in units}
    result = {"correct": h.failed == 0, "attempted": h.attempted, "failed": h.failed, "metrics": metrics}
    if args.out:
        record = dict(result, env=env, notes=w.notes, errors=h.errors,
                      samples={name: values[name][1] for name in units})
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
               "--repo", args.repo]
        if args.out:
            cmd += ["--out", args.out]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload['name']}/{name}"] = metric
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        with open(SPEC_PATH) as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
