#!/usr/bin/env bash
# Regenerates BENCH_kernels.json: runs the micro benchmark suite with the
# harness's JSON-lines output enabled, then folds the stream into a report
# that pairs each kernel-backed benchmark with its scalar baseline.
#
# The JSON-lines stream accumulates in target/criterion-results.jsonl across
# invocations and later lines win, so a filtered re-run (e.g.
# `scripts/bench_kernels.sh kernel`) updates only the filtered entries and
# keeps the rest of the report intact. When the stream is missing (a fresh
# checkout), it is first seeded from the committed BENCH_kernels.json, so a
# filtered run still rewrites only the rows it names. Delete the stream and
# BENCH_kernels.json for a fresh slate.
#
# `--scale paper` additionally unlocks the paper-scale (943×1682) end-to-end
# round-cost benchmarks (fedavg_round_paper_943x1682,
# gossip_round_paper_943x1682). They are env-gated rather than always-on so
# the `cargo bench -- --test` smoke gate and CI stay fast; run
# `scripts/bench_kernels.sh --scale paper paper` to refresh only those rows.
# With CIA_THREADS=N (N>1) the paper rows record under a `_tN` suffix, so a
# thread-scaling sweep accumulates rows instead of overwriting the
# single-thread baseline.
#
# The default (smoke) run always includes the small-scale trend rows
# (fedavg_round_small_200x400, gossip_round_small_200x400) — the same round
# hot path at ~1% of the work — so round-cost drift shows up without paying
# for paper-scale rounds.
set -euo pipefail
cd "$(dirname "$0")/.."

# Round benches are timed single-threaded by default so the recorded numbers
# are stable per-core costs; override CIA_THREADS explicitly to measure
# scaling.
export CIA_THREADS="${CIA_THREADS:-1}"

args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --scale)
        case "${2:-}" in
        paper) export CIA_BENCH_PAPER_SCALE=1 ;;
        smoke) unset CIA_BENCH_PAPER_SCALE ;;
        *)
            echo "--scale expects smoke|paper, got \`${2:-}\`" >&2
            exit 1
            ;;
        esac
        shift 2
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

# Absolute path: cargo runs bench binaries with the package dir as cwd.
jsonl="$PWD/target/criterion-results.jsonl"
mkdir -p target
if [ ! -f "$jsonl" ] && [ -f BENCH_kernels.json ]; then
    echo "== seeding $jsonl from BENCH_kernels.json"
    # A row's `baseline_ns` came from its `_scalar_ref` or `_naive` twin and
    # the report does not say which, so it is seeded as `_naive`: the report
    # prefers a fresh `_scalar_ref` line, and a fresh `_naive` line
    # overwrites the seed.
    python3 - BENCH_kernels.json "$jsonl" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    rows = json.load(f)
with open(sys.argv[2], "w") as out:
    for row in rows:
        out.write(json.dumps({"name": row["name"], "median_ns": row["median_ns"]}) + "\n")
        if "baseline_ns" in row:
            twin = {"name": row["name"] + "_naive", "median_ns": row["baseline_ns"]}
            out.write(json.dumps(twin) + "\n")
PY
fi

echo "== timing run (micro suite), streaming to $jsonl"
CRITERION_JSON="$jsonl" cargo bench -p cia-bench --bench micro ${args[@]+"${args[@]}"}

echo "== folding into BENCH_kernels.json"
cargo run --release -p cia-bench --bin bench_report -- "$jsonl" BENCH_kernels.json
cat BENCH_kernels.json
