#!/usr/bin/env bash
# Scenario engine smoke gate: runs the built-in suite (baseline-static,
# churn-20pct, colluding-sybils) at smoke scale, checks each smoke-scale JSONL
# stream against the record schema through both `scenario validate` and
# `scenario report`, exercises a sweep-expanded suite and a defense ×
# dynamics grid cell, proves stop/resume equality on a built-in gossip
# scenario, Pers-Gossip under churn, a sweep-expanded FL one and the FL
# Share-less grid cell, resumes hand-built crash states (a torn last line,
# a suite killed between scenarios, a stream of another seed), checks that
# a timed run's trace records and Chrome trace parse, checks six
# paper-scale transcripts (four FL, one of them PRME, and two gossip)
# against their recorded md5s, five of them under two worker counts, and
# resumes eight real SIGKILLs of a paper-scale run to its md5.
# scripts/ci.sh runs it as its `scenario-smoke` step.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

scenario() {
    cargo run --release -q -p cia-scenarios --bin scenario -- "$@"
}

# check FILE: the stream passes both readers of the binary, `validate` and
# `report`, which checks every record as `validate` does before it
# aggregates (the untimed report itself is not printed).
check() {
    scenario validate "$1"
    scenario report "$1" > /dev/null
}

echo "== built-in suite at smoke scale"
scenario run --scale smoke --seed 42 --out "$out/suite.jsonl" --no-timing

echo "== JSONL schema validation and report"
check "$out/suite.jsonl"

echo "== sweep-expanded suite: participation-sweep (Fig. 1 as a suite)"
scenario run --suite participation-sweep --scale smoke --seed 42 \
    --out "$out/sweep.jsonl" --no-timing
check "$out/sweep.jsonl"

echo "== one defense-dynamics-grid cell: shareless-x-churn"
scenario run --suite defense-dynamics-grid --scale smoke --seed 42 \
    --only shareless-x-churn --out "$out/grid-cell.jsonl" --no-timing
check "$out/grid-cell.jsonl"

echo "== kill/resume: colluding-sybils stopped at round 20, then resumed"
scenario run --scale smoke --seed 42 --only colluding-sybils --out "$out/resumed.jsonl" \
    --no-timing --stop-after 20
scenario run --scale smoke --seed 42 --only colluding-sybils --out "$out/resumed.jsonl" \
    --no-timing --resume
check "$out/resumed.jsonl"

# The resumed stream must equal the sybil slice of the uninterrupted suite.
grep '"scenario":"colluding-sybils"' "$out/suite.jsonl" > "$out/straight-sybils.jsonl"
if ! cmp -s "$out/straight-sybils.jsonl" "$out/resumed.jsonl"; then
    echo "resumed stream diverged from the uninterrupted run" >&2
    diff "$out/straight-sybils.jsonl" "$out/resumed.jsonl" >&2 || true
    exit 1
fi

# Pers-Gossip under churn: offline receivers hold undelivered models at the
# stop and the all-placements engine attacks.
echo "== kill/resume on gossip with held inboxes: pers-churn"
scenario run --suite pers-gossip-churn --scale smoke --seed 42 --only pers-churn \
    --out "$out/pers-churn.jsonl" --no-timing
scenario run --suite pers-gossip-churn --scale smoke --seed 42 --only pers-churn \
    --out "$out/pers-churn-resumed.jsonl" --no-timing --stop-after 20
scenario run --suite pers-gossip-churn --scale smoke --seed 42 --only pers-churn \
    --out "$out/pers-churn-resumed.jsonl" --no-timing --resume
if ! cmp -s "$out/pers-churn.jsonl" "$out/pers-churn-resumed.jsonl"; then
    echo "Pers-Gossip churn resume diverged from the uninterrupted run" >&2
    diff "$out/pers-churn.jsonl" "$out/pers-churn-resumed.jsonl" >&2 || true
    exit 1
fi

echo "== kill/resume on a sweep-expanded scenario: participation-0.5"
scenario run --suite participation-sweep --scale smoke --seed 42 \
    --only participation-0.5 --out "$out/sweep-resumed.jsonl" --no-timing --stop-after 4
scenario run --suite participation-sweep --scale smoke --seed 42 \
    --only participation-0.5 --out "$out/sweep-resumed.jsonl" --no-timing --resume
check "$out/sweep-resumed.jsonl"

grep '"scenario":"participation-0.5"' "$out/sweep.jsonl" > "$out/straight-sweep.jsonl"
if ! cmp -s "$out/straight-sweep.jsonl" "$out/sweep-resumed.jsonl"; then
    echo "sweep-expanded resume diverged from the uninterrupted run" >&2
    diff "$out/straight-sweep.jsonl" "$out/sweep-resumed.jsonl" >&2 || true
    exit 1
fi

echo "== kill/resume on FL Share-less: shareless-x-churn"
scenario run --suite defense-dynamics-grid --scale smoke --seed 42 \
    --only shareless-x-churn --out "$out/grid-resumed.jsonl" --no-timing --stop-after 4
scenario run --suite defense-dynamics-grid --scale smoke --seed 42 \
    --only shareless-x-churn --out "$out/grid-resumed.jsonl" --no-timing --resume
check "$out/grid-resumed.jsonl"

if ! cmp -s "$out/grid-cell.jsonl" "$out/grid-resumed.jsonl"; then
    echo "Share-less FL resume diverged from the uninterrupted run" >&2
    diff "$out/grid-cell.jsonl" "$out/grid-resumed.jsonl" >&2 || true
    exit 1
fi

# Crash states built by hand, each resumed into the same file.
# same FILE GOT WANT: FILE and WANT hold the same bytes.
same() {
    if ! cmp -s "$1" "$2"; then
        echo "$3: the resumed stream differs" >&2
        diff "$1" "$2" >&2 || true
        exit 1
    fi
}

echo "== crash state: a stopped stream plus half of its next line"
grep '"scenario":"baseline-static"' "$out/suite.jsonl" > "$out/straight-baseline.jsonl"
scenario run --scale smoke --seed 42 --only baseline-static --out "$out/torn.jsonl" \
    --no-timing --stop-after 4
next=$(sed -n "$(($(wc -l < "$out/torn.jsonl") + 1))p" "$out/straight-baseline.jsonl")
printf '%s' "${next:0:$((${#next} / 2))}" >> "$out/torn.jsonl"
scenario run --scale smoke --seed 42 --only baseline-static --out "$out/torn.jsonl" \
    --no-timing --resume
same "$out/torn.jsonl" "$out/straight-baseline.jsonl" "torn last line"

echo "== crash state: a suite killed between two scenarios"
sed -n "1,$(grep -n '"scenario_summary"' "$out/suite.jsonl" | head -1 | cut -d: -f1)p" \
    "$out/suite.jsonl" > "$out/between.jsonl"
scenario run --scale smoke --seed 42 --out "$out/between.jsonl" --no-timing --resume
same "$out/between.jsonl" "$out/suite.jsonl" "suite killed between scenarios"

echo "== crash state: a seed-7 stream resumed under seed 42 is refused"
scenario run --scale smoke --seed 7 --only baseline-static --out "$out/seed7.jsonl" \
    --no-timing --stop-after 4
cp "$out/seed7.jsonl" "$out/seed7.before.jsonl"
if scenario run --scale smoke --seed 42 --only baseline-static --out "$out/seed7.jsonl" \
    --no-timing --resume 2> "$out/seed7.stderr"; then
    echo "a seed-7 stream resumed under seed 42" >&2
    exit 1
fi
grep -q 'resume: line 1: `seed` is 7 in the stream, 42 recomputed' "$out/seed7.stderr" || {
    cat "$out/seed7.stderr" >&2
    exit 1
}
same "$out/seed7.jsonl" "$out/seed7.before.jsonl" "refused resume"

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
# count, so the five fast ones run twice: under the caller's CIA_THREADS and
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

# `--scale` does not override a suite file's own "scale", so the PRME check
# runs a paper-scale copy of the PRME smoke suite.
sed 's/"scale": "smoke"/"scale": "paper"/' crates/scenarios/tests/golden/prme-smoke.suite.json \
    > "$out/prme-paper.suite.json"

paper_checks() {
    paper_md5 builtin baseline-static 735d4b6ed5eadd9034897e7f8adc017f
    # The two FL fold paths the baseline does not take: momentum rows without
    # an owner embedding (Share-less), and the fold reading the DP snapshot.
    paper_md5 defense-dynamics-grid shareless-x-churn 73277ee0cb22b9b6b9e915aa456e3cb0
    paper_md5 defense-dynamics-grid dp10-x-churn 24b1e668afa9852548b0d11852a51b09
    # The gossip round: pushes lent to their receivers, merged in
    # receiver-first order with one copy per cycle of the send graph.
    paper_md5 builtin colluding-sybils 3f05c51a0f6ab1383e1bba47c3af1814 --stop-after 300
    # PRME, the model no built-in suite trains: FL under full sharing.
    paper_md5 "$out/prme-paper.suite.json" prme-fl-full 77bc73eb77facc88ae786c4702bf17ef \
        --stop-after 9
}

paper_checks
CIA_THREADS=1 paper_checks
# DP gossip: every push clipped and noised before its receivers merge it
# (one evaluation line at round 100; about 16 s, so it runs once).
paper_md5 defense-dynamics-grid dp10-x-sybils 60fdb9ac0e3ebc00f12ab95e56665cf2 --stop-after 150

# Real kills: paper baseline-static SIGKILLed at eight points spread over an
# uninterrupted run's wall time, each resumed into the same file. A kill
# can land mid-write, so this is the exactly-once check the stopped runs
# above cannot make. The binary runs directly: killing `cargo run` would
# leave its child writing.
echo "== real kills: paper baseline-static killed at eight points, each resumed"
bin="${CARGO_TARGET_DIR:-target}/release/scenario"
kill_args=(run --suite builtin --scale paper --seed 42 --only baseline-static --no-timing)
start=$(date +%s%N)
"$bin" "${kill_args[@]}" --out "$out/unkilled.jsonl" 2> /dev/null
wall_ns=$(($(date +%s%N) - start))
for i in 1 2 3 4 5 6 7 8; do
    f="$out/killed-$i.jsonl"
    # The binary itself goes to the background, so `kill` reaches it.
    "$bin" "${kill_args[@]}" --out "$f" 2> /dev/null &
    pid=$!
    sleep "$(awk -v w="$wall_ns" -v i="$i" 'BEGIN { printf "%.3f", w * i / 9 / 1e9 }')"
    kill -KILL "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    at_kill=$(wc -c < "$f")
    "$bin" "${kill_args[@]}" --out "$f" --resume 2> /dev/null
    got=$(md5sum "$f" | cut -d' ' -f1)
    echo "   kill $i: $at_kill bytes at the kill, resumed md5 $got"
    if [ "$got" != 735d4b6ed5eadd9034897e7f8adc017f ]; then
        echo "kill $i: the resumed transcript moved" >&2
        exit 1
    fi
done

echo "scenario smoke OK"
