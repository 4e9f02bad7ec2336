#!/usr/bin/env bash
# Scenario engine smoke gate: runs the built-in suite (baseline-static,
# churn-20pct, colluding-sybils) at smoke scale, validates the emitted JSONL
# against the record schema, exercises a sweep-expanded suite and a
# defense × dynamics grid cell, and proves kill/resume equality on a
# built-in gossip scenario, a sweep-expanded FL one and the FL Share-less
# grid cell. Part of the verify flow; see ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

scenario() {
    cargo run --release -q -p cia-scenarios --bin scenario -- "$@"
}

echo "== built-in suite at smoke scale"
scenario run --scale smoke --seed 42 --out "$out/suite.jsonl" --no-timing

echo "== JSONL schema validation"
scenario validate "$out/suite.jsonl"

echo "== sweep-expanded suite: participation-sweep (Fig. 1 as a suite)"
scenario run --suite participation-sweep --scale smoke --seed 42 \
    --out "$out/sweep.jsonl" --no-timing
scenario validate "$out/sweep.jsonl"

echo "== one defense-dynamics-grid cell: shareless-x-churn"
scenario run --suite defense-dynamics-grid --scale smoke --seed 42 \
    --only shareless-x-churn --out "$out/grid-cell.jsonl" --no-timing
scenario validate "$out/grid-cell.jsonl"

echo "== kill/resume: colluding-sybils stopped at round 20, then resumed"
scenario run --scale smoke --seed 42 --only colluding-sybils --out "$out/resumed.jsonl" \
    --no-timing --checkpoint-dir "$out/ckpt" --checkpoint-every 10 --stop-after 20
scenario run --scale smoke --seed 42 --only colluding-sybils --out "$out/resumed.jsonl" \
    --no-timing --checkpoint-dir "$out/ckpt" --resume
scenario validate "$out/resumed.jsonl"

# The resumed stream must equal the sybil slice of the uninterrupted suite.
grep '"scenario":"colluding-sybils"' "$out/suite.jsonl" > "$out/straight-sybils.jsonl"
if ! cmp -s "$out/straight-sybils.jsonl" "$out/resumed.jsonl"; then
    echo "resumed stream diverged from the uninterrupted run" >&2
    diff "$out/straight-sybils.jsonl" "$out/resumed.jsonl" >&2 || true
    exit 1
fi

echo "== kill/resume on a sweep-expanded scenario: participation-0.5"
scenario run --suite participation-sweep --scale smoke --seed 42 \
    --only participation-0.5 --out "$out/sweep-resumed.jsonl" \
    --no-timing --checkpoint-dir "$out/sweep-ckpt" --checkpoint-every 2 --stop-after 4
scenario run --suite participation-sweep --scale smoke --seed 42 \
    --only participation-0.5 --out "$out/sweep-resumed.jsonl" \
    --no-timing --checkpoint-dir "$out/sweep-ckpt" --resume
scenario validate "$out/sweep-resumed.jsonl"

grep '"scenario":"participation-0.5"' "$out/sweep.jsonl" > "$out/straight-sweep.jsonl"
if ! cmp -s "$out/straight-sweep.jsonl" "$out/sweep-resumed.jsonl"; then
    echo "sweep-expanded resume diverged from the uninterrupted run" >&2
    diff "$out/straight-sweep.jsonl" "$out/sweep-resumed.jsonl" >&2 || true
    exit 1
fi

echo "== kill/resume on FL Share-less: shareless-x-churn"
scenario run --suite defense-dynamics-grid --scale smoke --seed 42 \
    --only shareless-x-churn --out "$out/grid-resumed.jsonl" \
    --no-timing --checkpoint-dir "$out/grid-ckpt" --checkpoint-every 2 --stop-after 4
scenario run --suite defense-dynamics-grid --scale smoke --seed 42 \
    --only shareless-x-churn --out "$out/grid-resumed.jsonl" \
    --no-timing --checkpoint-dir "$out/grid-ckpt" --resume
scenario validate "$out/grid-resumed.jsonl"

if ! cmp -s "$out/grid-cell.jsonl" "$out/grid-resumed.jsonl"; then
    echo "Share-less FL resume diverged from the uninterrupted run" >&2
    diff "$out/grid-cell.jsonl" "$out/grid-resumed.jsonl" >&2 || true
    exit 1
fi

echo "scenario smoke OK"
