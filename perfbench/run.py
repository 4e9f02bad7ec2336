#!/usr/bin/env python3
"""Paper-scale scenario benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `scenario` binary and the traced replica (`perfbench/tracer`) from
source, then for one workload and seed:

1. spawns fresh `scenario run --scale paper --no-timing` processes (the
   default evented engine with the full attack, scenario seed 42) until
   `--seconds` have passed, at least two of them, and checks every
   transcript; after each one, the traced replica times set-up alone;
2. runs the whole traced replica once, which times the layer seams, and
   checks that its max AAC equals the transcript's.

The last line of standard output is one JSON object: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A full record
(provenance, every metric's raw samples and quartiles, every check) goes to
`perfbench/out/results/`. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

from stats import summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
THREADS = "2"
MIN_E2E_RUNS = 2
PROCESS_TIMEOUT_S = 150

# name -> (suite, scenario, --stop-after, round_eval records in the transcript)
WORKLOADS = {
    "fl-paper": ("builtin", "baseline-static", None, 10),
    "gl-sybils-paper-300r": ("builtin", "colluding-sybils", 300, 3),
    "fl-dp-churn-paper": ("defense-dynamics-grid", "dp10-x-churn", None, 10),
    "fl-shareless-churn-paper": ("defense-dynamics-grid", "shareless-x-churn", None, 10),
}


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def provenance(args):
    return {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "cia_threads": THREADS,
        "rustc": command_output(["rustc", "--version"]),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def build(env):
    """Builds the `scenario` binary and the tracer; returns their paths."""
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "cia-scenarios", "--bin", "scenario"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "tracer", "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "scenario"), os.path.join(release, "perfbench-tracer")


def spawn_measured(cmd, env, stderr_path):
    """Runs `cmd` to completion; returns (exit code, wall s, cpu s, peak RSS MiB)."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def check_transcript(binary, path, expected_evals, stopped, env):
    """Returns (problems, max_aac, utility or None) for one transcript."""
    r = subprocess.run([binary, "validate", path], cwd=ROOT, env=env, capture_output=True,
                       text=True, timeout=60)
    if r.returncode != 0:
        return [f"scenario validate failed: {r.stderr.strip()}"], None, None
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    evals = [rec for rec in records if rec["type"] == "round_eval"]
    summaries = [rec for rec in records if rec["type"] == "scenario_summary"]
    problems = []
    if len(evals) != expected_evals:
        problems.append(f"{len(evals)} round_eval records, expected {expected_evals}")
    # A run stopped early writes no summary; a completed one writes exactly one.
    if len(summaries) != (0 if stopped else 1):
        problems.append(f"{len(summaries)} scenario_summary records")
    max_aac = max((rec["aac"] for rec in evals), default=None)
    utility = summaries[0]["utility"] if summaries else None
    return problems, max_aac, utility


def run_e2e(binary, cmd, spec, out, env):
    """One `scenario run` process, timed and checked."""
    _, _, stop_after, expected_evals = spec
    if os.path.exists(out):
        os.remove(out)
    code, wall, cpu, rss = spawn_measured(cmd + ["--out", out], env, out + ".stderr")
    run = {"exit": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mib": rss,
           "problems": [], "max_aac": None, "utility": None, "digest": None}
    if code != 0:
        run["problems"].append(f"exit code {code}")
    elif not os.path.exists(out):
        run["problems"].append("no transcript written")
    else:
        problems, run["max_aac"], run["utility"] = check_transcript(
            binary, out, expected_evals, stop_after is not None, env)
        run["problems"] += problems
        with open(out, "rb") as f:
            run["digest"] = hashlib.sha256(f.read()).hexdigest()
    return run


def run_tracer(tracer, spec, setup_only, env):
    suite, scenario, stop_after, _ = spec
    cmd = [tracer, "--suite", suite, "--only", scenario]
    if stop_after is not None:
        cmd += ["--stop-after", str(stop_after)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "traced run timed out"
    if r.returncode != 0:
        return None, f"traced run failed: {r.stderr.strip()}"
    try:
        return json.loads(r.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"traced run printed no result: {r.stdout[-200:]!r}"


def measure(binary, tracer, spec, seconds, env, work):
    """Alternates e2e processes with set-up-only replica runs until `seconds`
    have passed; returns (e2e runs, set-up traces, problems)."""
    suite, scenario, stop_after, _ = spec
    cmd = [binary, "run", "--suite", suite, "--scale", "paper", "--only", scenario,
           "--no-timing"]
    if stop_after is not None:
        cmd += ["--stop-after", str(stop_after)]
    runs, setups, problems = [], [], []
    digest0 = None
    t_start = time.perf_counter()
    while len(runs) < MIN_E2E_RUNS or time.perf_counter() - t_start < seconds:
        out = os.path.join(work, f"transcript-{len(runs)}.jsonl")
        run = run_e2e(binary, cmd, spec, out, env)
        digest0 = digest0 or run["digest"]
        if run["digest"] and run["digest"] != digest0:
            run["problems"].append("transcript differs from the first run's")
        problems += [f"e2e run {len(runs)}: {p}" for p in run["problems"]]
        runs.append(run)
        t, problem = run_tracer(tracer, spec, True, env)
        if problem:
            problems.append(f"set-up run {len(setups)}: {problem}")
        setups.append(t)
    return runs, setups, problems


def fidelity_problems(t, transcript):
    """The replica must reproduce the transcript's attack (and utility, where
    the transcript has one) exactly."""
    problems = []
    if t["max_aac"] != transcript["max_aac"]:
        problems.append(f"traced max_aac {t['max_aac']!r} != transcript "
                        f"{transcript['max_aac']!r}: the replica no longer runs the runner's program")
    if transcript["utility"] is not None and t["utility"] != transcript["utility"]:
        problems.append(f"traced utility {t['utility']!r} != transcript {transcript['utility']!r}")
    return problems


def tail_index(n):
    """Index of the highest percentile with at least ten samples beyond it."""
    return n - 11 if n >= 11 else n - 1


def setup_samples(traces, key):
    return [x for t in traces for x in t[key]]


def e2e_metrics(ok, traces, t):
    setup = [a + b for a, b in zip(setup_samples(traces, "setup_build_s"),
                                   setup_samples(traces, "client_build_s"))]
    # A run stopped early writes no scenario_summary; its utility is the
    # replica's HR@20 of the same models (the replica's max AAC is checked
    # against the transcript's).
    utility = ok[0]["utility"] if ok[0]["utility"] is not None else t["utility"]
    return {
        "wall_s": summarize([r["wall_s"] for r in ok]),
        "setup_s": summarize(setup),
        "peak_rss_mib": summarize([r["peak_rss_mib"] for r in ok]),
        "max_aac": summarize([r["max_aac"] for r in ok]),
        "utility_hr20": summarize([utility]),
    }


def layer_metrics(workload, ok, traces, t, e2e):
    wall_med = e2e["wall_s"]["median"]
    setup_med = e2e["setup_s"]["median"]
    rounds_s = sum(t["round_s"])
    round_ms = [x * 1e3 for x in t["round_s"]]
    k = tail_index(len(round_ms))
    dp_s = t["dp_run_s"] + t["dp_probe_s"]
    dp_calls = t["dp_run_calls"] + t["dp_probe_calls"]

    def one(v):
        return summarize([v])

    m = {
        "data.setup_build_s": summarize(setup_samples(traces, "setup_build_s")),
        "models.client_build_s": summarize(setup_samples(traces, "client_build_s")),
        "protocol.round_ms_p50": summarize(round_ms),
        "protocol.round_ms_tail": summarize(round_ms, value=sorted(round_ms)[k]),
        "protocol.self_s": one(rounds_s - t["attack_s"] - t["dp_run_s"]),
        "protocol.client_trainings": one(t["client_trainings"]),
        "protocol.client_train_us": one(t["client_train_us_sum"] / max(t["client_train_count"], 1)),
        "protocol.deliveries": one(t["deliveries"]),
        "protocol.bytes_materialized": one(t["bytes_materialized"]),
        "process.cpu_s": summarize([r["cpu_s"] for r in ok]),
        "process.cores_used": summarize([r["cpu_s"] / r["wall_s"] for r in ok]),
        "attack.observe_s": one(t["observe_s"]),
        "attack.observe_calls": one(t["observe_calls"]),
        "attack.eval_s": one(t["eval_s"]),
        "attack.evals": one(t["evals"]),
        "attack.prepare_s": one(t["prepare_s"]),
        "attack.score_cpu_s": one(t["score_cpu_s"]),
        "attack.score_calls": one(t["score_calls"]),
        "attack.score_us_per_model": one(t["score_cpu_s"] * 1e6 / max(t["score_calls"], 1)),
        "defenses.dp_s": one(dp_s),
        "defenses.dp_calls": one(dp_calls),
        "defenses.dp_us_per_call": one(dp_s * 1e6 / max(dp_calls, 1)),
        "runner.unexplained_s": one(wall_med - setup_med - rounds_s),
    }
    tail = m["protocol.round_ms_tail"]
    tail["percentile"] = 100.0 * (k + 1) / len(round_ms)
    parts = [
        ("setup", setup_med),
        ("protocol.self", m["protocol.self_s"]["value"]),
        ("attack", t["attack_s"]),
        ("dp", t["dp_run_s"]),
        ("unexplained", m["runner.unexplained_s"]["value"]),
    ]
    explained = " + ".join(f"{n} {v:.3f}s ({100 * v / wall_med:.1f}%)" for n, v in parts)
    sys.stderr.write(f"[{workload}] {explained} = wall_s median {wall_med:.3f}s over "
                     f"{len(ok)} runs; round_ms_tail is p{tail['percentile']:.1f} of "
                     f"{tail['n']} rounds\n")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results-dir", default=os.path.join(OUT, "results"))
    args = ap.parse_args()

    for needed in ("BENCHMARK.json", "Cargo.toml", os.path.join("crates", "scenarios", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    env = dict(os.environ, CIA_THREADS=THREADS)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary, tracer = build(env)
    spec = WORKLOADS[args.workload]
    work = os.path.join(OUT, "work", args.workload)
    os.makedirs(work, exist_ok=True)

    runs, setups, problems = measure(binary, tracer, spec, args.seconds, env, work)
    ok = [r for r in runs if not r["problems"]]
    # The whole replica runs for the per-layer numbers, and for a stopped run
    # whose transcript carries no utility.
    full = args.trace == 1 or spec[2] is not None
    t, replica_problems = None, []
    if full:
        t, problem = run_tracer(tracer, spec, False, env)
        if problem:
            replica_problems = [problem]
        elif ok:
            replica_problems = fidelity_problems(t, ok[0])
        problems += replica_problems
    traces = [x for x in setups + [t] if x]
    # Each e2e process and each replica run is one operation.
    attempted = len(runs) + len(setups) + int(full)
    failed = len(runs) - len(ok) + setups.count(None) + int(bool(replica_problems))
    for p in problems:
        sys.stderr.write(f"perfbench: FAILED {p}\n")

    metrics = {}
    if ok and traces and (t or not full):
        metrics = e2e_metrics(ok, traces, t)
        if t:
            metrics.update(layer_metrics(args.workload, ok, traces, t, metrics))
    units = {d["name"]: d["unit"] for d in bench["end_to_end"] + bench["per_layer"]}
    for name, rec in metrics.items():
        rec["unit"] = units[name]
    record = {
        "provenance": provenance(args),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    os.makedirs(args.results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.results_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    kind = "per_layer" if args.trace else "end_to_end"
    shown = {d["name"]: {"value": metrics[d["name"]]["value"], "unit": d["unit"]}
             for d in bench[kind] if d["name"] in metrics}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
