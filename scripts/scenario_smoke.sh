#!/usr/bin/env bash
# Scenario engine smoke gate: runs the built-in suite (baseline-static,
# churn-20pct, colluding-sybils) at smoke scale, validates the emitted JSONL
# against the record schema, exercises a sweep-expanded suite and a
# defense × dynamics grid cell, proves kill/resume equality on a built-in
# gossip scenario, Pers-Gossip under churn, a sweep-expanded FL one and the
# FL Share-less grid cell, checks that a timed run's trace records and Chrome
# trace parse, and checks five paper-scale transcripts (three FL, two
# gossip) against their recorded md5s, four of them under two worker counts.
# scripts/ci.sh runs it as its `scenario-smoke` step.
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

# Pers-Gossip under churn: offline receivers hold undelivered models and
# the all-placements engine attacks, so the checkpoint's gossip section
# carries inboxes and the score-EMA state.
echo "== kill/resume on gossip with held inboxes: pers-churn"
scenario run --suite pers-gossip-churn --scale smoke --seed 42 --only pers-churn \
    --out "$out/pers-churn.jsonl" --no-timing
scenario run --suite pers-gossip-churn --scale smoke --seed 42 --only pers-churn \
    --out "$out/pers-churn-resumed.jsonl" --no-timing \
    --checkpoint-dir "$out/pers-ckpt" --checkpoint-every 10 --stop-after 20
scenario run --suite pers-gossip-churn --scale smoke --seed 42 --only pers-churn \
    --out "$out/pers-churn-resumed.jsonl" --no-timing --checkpoint-dir "$out/pers-ckpt" --resume
if ! cmp -s "$out/pers-churn.jsonl" "$out/pers-churn-resumed.jsonl"; then
    echo "Pers-Gossip churn resume diverged from the uninterrupted run" >&2
    diff "$out/pers-churn.jsonl" "$out/pers-churn-resumed.jsonl" >&2 || true
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

# Observability smoke: a timed single-scenario run must emit trace records
# that `scenario report` can aggregate, plus a Chrome trace file that
# parses. Artifacts land in target/bench-smoke/ (CI uploads trace.json on a
# failed run).
echo "== scenario report + Chrome trace smoke"
mkdir -p target/bench-smoke
scenario run --suite builtin --scale smoke --seed 42 --only baseline-static \
    --out target/bench-smoke/report-smoke.jsonl --trace-out target/bench-smoke/trace.json
report_out=$(scenario report --check-trace target/bench-smoke/trace.json \
    target/bench-smoke/report-smoke.jsonl)
echo "$report_out"
if echo "$report_out" | grep -q "no trace records"; then
    echo "error: timed run produced no trace records" >&2
    exit 1
fi

# Paper-scale transcripts against their recorded md5s, so a ranking, setup,
# round or momentum-fold change that moves a paper result fails here, not
# only in the smoke goldens. The transcripts are the same for every thread
# count, so the four fast ones run twice: under the caller's CIA_THREADS and
# under CIA_THREADS=1, where a worker-count bug would show.
# paper_md5 SUITE NAME MD5 [EXTRA ARGS...]: extra arguments go to `scenario run`.
paper_md5() {
    local suite=$1 name=$2 want=$3 got
    shift 3
    echo "== paper-scale determinism (CIA_THREADS=${CIA_THREADS:-unset}): $name $*"
    scenario run --suite "$suite" --scale paper --seed 42 --only "$name" \
        --out "$out/paper-$name.jsonl" --no-timing "$@"
    got=$(md5sum "$out/paper-$name.jsonl" | cut -d' ' -f1)
    if [ "$got" != "$want" ]; then
        echo "paper $name transcript moved: md5 $got, recorded $want" >&2
        exit 1
    fi
}

paper_checks() {
    paper_md5 builtin baseline-static 735d4b6ed5eadd9034897e7f8adc017f
    # The two FL fold paths the baseline does not take: momentum rows without
    # an owner embedding (Share-less), and the fold reading the DP snapshot.
    paper_md5 defense-dynamics-grid shareless-x-churn 73277ee0cb22b9b6b9e915aa456e3cb0
    paper_md5 defense-dynamics-grid dp10-x-churn 24b1e668afa9852548b0d11852a51b09
    # The gossip round: pushes lent to their receivers, merged in
    # receiver-first order with one copy per cycle of the send graph.
    paper_md5 builtin colluding-sybils 3f05c51a0f6ab1383e1bba47c3af1814 --stop-after 300
}

paper_checks
CIA_THREADS=1 paper_checks
# DP gossip: every push clipped and noised before its receivers merge it
# (one evaluation line at round 100; about 16 s, so it runs once).
paper_md5 defense-dynamics-grid dp10-x-sybils 60fdb9ac0e3ebc00f12ab95e56665cf2 --stop-after 150

echo "scenario smoke OK"
