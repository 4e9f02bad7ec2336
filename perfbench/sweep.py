#!/usr/bin/env python3
"""Runs the benchmark over several seeds and merges the runs into one result file.

    python3 perfbench/sweep.py --out FILE [--seeds 1-10] [--workloads A,B]
                               [--trace 0|1]
    python3 perfbench/sweep.py --root PARENT --out parent.json \
                               --root CHANGE --out change.json [...]

Each (workload, seed) is one `perfbench/run.py` process, exactly as a single
benchmark run, measuring for `BENCHMARK.json`'s `run_seconds`. The result file holds every run's record (provenance, checks,
every metric with its raw samples); `perfbench/compare.py` compares two of
them. The sweep prints, per workload and end-to-end metric, the median of the
per-run values and their spread: the distance between the first and third
quartile as a share of the median.

With several `--root` checkouts (each with its own `--out`), every (workload,
seed) runs once in each checkout, back to back, and the checkout that goes
first rotates from seed to seed. Host speed drifts over minutes, so paired
runs made close together, in alternating order, keep that drift out of the
paired comparison. Without `--root` the sweep runs this checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from stats import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread_report(runs, bench):
    lines = []
    for wl in dict.fromkeys(r["workload"] for r in runs):
        for d in bench["end_to_end"]:
            vals = [r["metrics"][d["name"]]["value"] for r in runs
                    if r["workload"] == wl and d["name"] in r["metrics"]]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = "ok" if spread < d["bound"] / 3 else "WIDE"
            lines.append(f"{wl:26} {d['name']:14} median {med:<12.6g} {d['unit']:9} "
                         f"spread {spread:6.3f} (bound {d['bound']}, n={len(vals)}) {flag}")
    return "\n".join(lines)


def sweep(roots, workloads, seeds, seconds, trace):
    """Returns one list of run records per root."""
    runs = [[] for _ in roots]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        for wl in workloads:
            for i, seed in enumerate(seeds):
                for k in range(len(roots)):
                    j = (i + k) % len(roots)
                    results = os.path.join(tmp, str(j))
                    cmd = [sys.executable, os.path.join(roots[j], "perfbench", "run.py"),
                           "--workload", wl, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace), "--results-dir", results]
                    r = subprocess.run(cmd, cwd=roots[j], capture_output=True, text=True)
                    sys.stderr.write(r.stderr)
                    path = os.path.join(results, f"{wl}-seed{seed}-trace{trace}.json")
                    if not os.path.exists(path):
                        sys.exit(f"sweep: {roots[j]}: {wl} seed {seed} wrote no record "
                                 f"(exit {r.returncode})")
                    with open(path) as f:
                        record = json.load(f)
                    record.update(workload=wl, seed=seed)
                    runs[j].append(record)
                    print(f"{roots[j]}: {wl} seed {seed}: exit {r.returncode}, "
                          f"{record['failed']}/{record['attempted']} failed", flush=True)
    return runs


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", action="append", help="checkout to run (repeatable)")
    ap.add_argument("--out", action="append", required=True, help="result file, one per --root")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    roots = [os.path.abspath(r) for r in args.root or [ROOT]]
    if len(roots) != len(args.out):
        ap.error("give one --out per --root")

    all_runs = sweep(roots, args.workloads.split(","), parse_seeds(args.seeds),
                     bench["run_seconds"], args.trace)
    for root, out, runs in zip(roots, args.out, all_runs):
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            root_bench = json.load(f)
        with open(out, "w") as f:
            json.dump({"benchmark": root_bench, "runs": runs}, f, indent=1)
        print(f"== {root} -> {out}")
        print(spread_report(runs, root_bench))


if __name__ == "__main__":
    main()
