#!/usr/bin/env python3
"""A/B comparison of two carrierstream checkouts with this benchmark.

Run interleaved pairs, then report (both from the root of this checkout):

    python3 perfbench/compare.py run --parent ../parent --change .
    python3 perfbench/compare.py report .perfbench_out/ab/parent.jsonl .perfbench_out/ab/change.jsonl

`run` measures both checkouts with this checkout's benchmark code, for
BENCHMARK.json's `run_seconds`. It first empties the two result files in
`--out-dir`. It runs MIN_PAIRS pairs of every workload; pair i uses seed
BASE_SEED + i on both sides and alternates which side runs first.
`report` pairs each parent run of a workload with the change run of the
same seed, lists every run left without a partner, and prints, for
each workload and end-to-end metric, each side's median and quartiles,
the share of pairs the change won (ties count for neither side), and a
verdict:

* improved: at least MIN_PAIRS pairs, the change won at least 9/10 of
  them, the medians differ by more than the parent's own quartile
  spread, and the change failed no more operations than the parent;
* not improved: as improved, but the change failed more operations;
* no worse within bound: the change's median is within the metric's
  BENCHMARK.json bound of the parent's;
* worse: outside the bound, with the parent's spread inside it;
* unresolved: fewer than MIN_PAIRS pairs, or the parent's spread is
  wider than the bound and not every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
LIKE_FOR_LIKE = ("python", "numpy", "blas", "blas_threads", "nproc", "cpu", "seconds")
BASE_SEED = 1000
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: tuple[int, int]) -> tuple[str, float]:
    """`failed` is (parent, change) failed operations over the paired runs."""
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0: the change is better
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change)) / len(parent)
    if len(parent) < MIN_PAIRS:
        return f"unresolved (fewer than {MIN_PAIRS} pairs)", won
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if won >= 0.9 and sign * (cm - pm) > p3 - p1:
        if failed[1] > failed[0]:
            return "not improved: the change failed more operations", won
        return "improved", won
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) / abs(pm) > bound and not every_run_better:
        return "unresolved", won
    worse_by = -sign * (cm - pm) / abs(pm)
    return ("no worse within bound" if worse_by <= bound else "worse"), won


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [r for r in map(json.loads, filter(str.strip, fh)) if not r["env"]["trace"]]


def by_seed(runs: list[dict], workload: str) -> tuple[dict, list[int]]:
    """The runs of one workload keyed by seed, and the seeds seen more than once."""
    found: dict[int, dict] = {}
    repeated = []
    for r in runs:
        if r["env"]["workload"] != workload:
            continue
        seed = r["env"]["seed"]
        if seed in found:
            repeated.append(seed)
        found[seed] = r
    return found, repeated


def report(parent_path: str, change_path: str) -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    parent, change = load(parent_path), load(change_path)
    for key in LIKE_FOR_LIKE:
        seen = {str(r["env"][key]) for r in parent + change}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}")
    header = f"{'workload':<13} {'metric':<17} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>5}  verdict"
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"parent": by_seed(parent, workload), "change": by_seed(change, workload)}
        seeds = sorted(sides["parent"][0].keys() & sides["change"][0].keys())
        for side, (runs, repeated) in sides.items():
            unpaired = sorted(set(runs) - set(seeds))
            if unpaired:
                print(f"{workload:<13} {side} runs without a partner, seeds {unpaired}")
            if repeated:
                print(f"{workload:<13} {side} has several runs of seeds {sorted(set(repeated))}; the last is used")
        if not seeds:
            print(f"{workload:<13} no pairs: {len(sides['parent'][0])} parent and "
                  f"{len(sides['change'][0])} change runs, no verdict")
            continue
        pairs = [(sides["parent"][0][s], sides["change"][0][s]) for s in seeds]
        failed = tuple(sum(r["failed"] for r in runs) for runs in zip(*pairs))
        for side, runs, n_failed in zip(("parent", "change"), zip(*pairs), failed):
            if n_failed:
                print(f"{workload:<13} {side} failed {n_failed} of {sum(r['attempted'] for r in runs)} operations")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            what, won = verdict(pv, cv, metric["better"], metric["bound"], failed)
            ps = "/".join(f"{v:.4g}" for v in quartiles(pv))
            cs = "/".join(f"{v:.4g}" for v in quartiles(cv))
            print(f"{workload:<13} {name:<17} {ps:>32} {cs:>32} {won:>5.2f}  {what} (n={len(pairs)})")
    return 0


def run(args) -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    os.makedirs(args.out_dir, exist_ok=True)
    outs = {side: os.path.join(args.out_dir, f"{side}.jsonl") for side in ("parent", "change")}
    for path in outs.values():
        open(path, "w").close()  # run.py --out appends; start from empty files
    for i in range(MIN_PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(BASE_SEED + i), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0", "--repo", getattr(args, side), "--out", outs[side]]
                done = subprocess.run(cmd, capture_output=True, text=True)
                status = "ok" if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
                print(f"pair {i + 1}/{MIN_PAIRS} {workload} {side}: {status}", flush=True)
    return report(outs["parent"], outs["change"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="interleaved runs of two checkouts, then the report")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--out-dir", default=os.path.join(".perfbench_out", "ab"))
    q = sub.add_parser("report", help="report on result files written by run.py --out")
    q.add_argument("parent")
    q.add_argument("change")
    args = p.parse_args(argv)
    return run(args) if args.cmd == "run" else report(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
