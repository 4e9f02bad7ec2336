#!/usr/bin/env python3
"""Compares two benchmark result files written by `perfbench/sweep.py`.

    python3 perfbench/compare.py OLD NEW

Runs are paired by (workload, seed). Every (metric, workload) pair present in
both files gets one verdict, judged on the per-run values:

  regressed   for a metric with a bound: the new median is worse than the
              old one by more than the bound. For a per-layer metric (no
              bound): the new side is worse in at least nine tenths of the
              pairs and its median lies beyond the old runs' quartiles on the
              worse side
  improved    the new side is better in at least nine tenths of the pairs
              (ties count for neither) and its median lies beyond the old
              runs' quartiles on the better side
  unchanged   every pair ties; or, for a metric with a bound, neither of the
              above while the old runs' quartile spread is within the bound;
              for a per-layer metric, the new median lies within the old
              quartiles
  unresolved  anything else: the runs spread too widely to tell

A metric with a bound that is worse in at least nine tenths of the pairs,
beyond the old quartiles but within the bound, reads unchanged with the note
"worse, within bound": a consistent loss the bound allows.

Bounds and directions come from the OLD file's benchmark definition. The
command also prints each side's share of failed operations per workload, and
exits 1 when any end-to-end pair regressed.
"""

import json
import math
import statistics
import sys

from stats import quartiles

WIN_SHARE = 0.9


def paired(old, new, better):
    """Paired figures for one (metric, workload); `old`/`new` map seed -> value."""
    seeds = sorted(set(old) & set(new))
    o = [old[s] for s in seeds]
    n = [new[s] for s in seeds]
    sign = 1 if better == "higher" else -1
    mo, mn = statistics.median(o), statistics.median(n)
    q1, q3 = quartiles(o)
    need = math.ceil(WIN_SHARE * len(seeds))
    return {
        "pairs": len(seeds),
        "old": mo,
        "new": mn,
        "q1": q1,
        "q3": q3,
        "sign": sign,
        "ties": all(a == b for a, b in zip(o, n)),
        "wins": sum((b - a) * sign > 0 for a, b in zip(o, n)) >= need,
        "losses": sum((b - a) * sign < 0 for a, b in zip(o, n)) >= need,
        "beyond_better": mn > q3 if sign > 0 else mn < q1,
        "beyond_worse": mn < q1 if sign > 0 else mn > q3,
    }


def verdict(old, new, better, bound=None):
    """Verdict for one (metric, workload) pair; `old`/`new` map seed -> value."""
    if not set(old) & set(new):
        return "unresolved"
    p = paired(old, new, better)
    if p["ties"]:
        return "unchanged"
    mo, mn = p["old"], p["new"]
    worse = (mo - mn) * p["sign"]
    worse_share = worse / abs(mo) if mo else math.copysign(math.inf, worse) if worse else 0.0
    if bound is not None and worse_share > bound:
        return "regressed"
    if p["wins"] and p["beyond_better"]:
        return "improved"
    if bound is None:
        if p["losses"] and p["beyond_worse"]:
            return "regressed"
        return "unchanged" if p["q1"] <= mn <= p["q3"] else "unresolved"
    spread = (p["q3"] - p["q1"]) / abs(mo) if mo else 0.0
    return "unchanged" if spread <= bound else "unresolved"


def within_bound_loss(old, new, better, bound):
    """Whether an unregressed bounded metric still lost consistently."""
    p = paired(old, new, better)
    return bound is not None and p["losses"] and p["beyond_worse"]


def values(result, workload, metric):
    return {r["seed"]: r["metrics"][metric]["value"] for r in result["runs"]
            if r["workload"] == workload and metric in r["metrics"]}


def failed_share(result, workload):
    runs = [r for r in result["runs"] if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return failed, attempted


def compare(old, new):
    """Returns (report lines, number of regressed end-to-end pairs)."""
    bench = old["benchmark"]
    workloads = [w["name"] for w in bench["workloads"]]
    lines = []
    regressions = 0
    for wl in workloads:
        if not any(r["workload"] == wl for r in old["runs"]) or \
                not any(r["workload"] == wl for r in new["runs"]):
            continue
        of, oa = failed_share(old, wl)
        nf, na = failed_share(new, wl)
        lines.append(f"== {wl}: failed ops old {of}/{oa} ({100 * of / max(oa, 1):.1f}%), "
                     f"new {nf}/{na} ({100 * nf / max(na, 1):.1f}%)")
        for kind in ("end_to_end", "per_layer"):
            for d in bench[kind]:
                o, n = values(old, wl, d["name"]), values(new, wl, d["name"])
                if not (set(o) & set(n)):
                    continue
                v = verdict(o, n, d["better"], d.get("bound"))
                if kind == "end_to_end" and v == "regressed":
                    regressions += 1
                p = paired(o, n, d["better"])
                mo, mn = p["old"], p["new"]
                delta = f"{100 * (mn - mo) / abs(mo):+.1f}%" if mo else "n/a"
                note = ""
                if v == "unchanged" and within_bound_loss(o, n, d["better"], d.get("bound")):
                    note = "  (worse, within bound)"
                lines.append(f"  {d['name']:28} {d['unit']:8} old {mo:<11.5g} "
                             f"[{p['q1']:.5g}, {p['q3']:.5g}] new {mn:<11.5g} {delta:>8}  "
                             f"pairs {p['pairs']:2}  {v}{note}")
    return lines, regressions


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py OLD NEW\n")
        return 2
    results = []
    for path in argv:
        with open(path) as f:
            results.append(json.load(f))
    lines, regressions = compare(*results)
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
