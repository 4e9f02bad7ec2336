#!/usr/bin/env bash
# Regenerates BENCH_kernels.json: runs the micro benchmark suite with the
# harness's JSON-lines output enabled, then folds the stream into a report
# that pairs each kernel-backed benchmark with its scalar baseline.
#
# The JSON-lines stream accumulates in target/criterion-results.jsonl across
# invocations and later lines win, so a filtered re-run (e.g.
# `scripts/bench_kernels.sh kernel`) updates only the filtered entries and
# keeps the rest of the report intact. Delete that file for a fresh slate.
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

echo "== timing run (micro suite), streaming to $jsonl"
CRITERION_JSON="$jsonl" cargo bench -p cia-bench --bench micro ${args[@]+"${args[@]}"}

echo "== folding into BENCH_kernels.json"
cargo run --release -p cia-bench --bin bench_report -- "$jsonl" BENCH_kernels.json
cat BENCH_kernels.json
