#!/usr/bin/env bash
# Keeps the benchmarks from bit-rotting: every bench body runs once
# (`--test`), the full workspace test suite gates ahead of clippy (a test
# regression should fail this gate before any bench numbers are trusted),
# and clippy gates all targets (benches included) at -D warnings. Part of
# the verify flow; see ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# ci.sh runs fmt-check, cia-lint and the workspace tests as its own
# (earlier) steps; it sets CIA_SKIP_REDUNDANT_GATES=1 so a CI run does not
# pay for them twice. Standalone invocations keep the full gate.
if [ "${CIA_SKIP_REDUNDANT_GATES:-0}" != 1 ]; then
    echo "== cargo fmt --all --check"
    cargo fmt --all --check
    # Determinism & safety pass (crates/lint/README.md) — gates ahead of
    # the benches and clippy, mirroring ci.sh's dedicated lint step.
    echo "== cia-lint --json"
    cargo run --release -q -p cia-lint --bin cia-lint -- \
        --json --out target/cia-lint.json
fi

# Every ungated bench body runs once.
echo "== cargo bench -- --test (every benchmark body, one iteration)"
cargo bench -p cia-bench -- --test

echo "== scenario engine smoke (suites + sweeps + grid cell + schema + resume)"
scripts/scenario_smoke.sh

# Observability smoke: a timed single-scenario run must emit trace records
# that `scenario report` can aggregate, plus a Chrome trace file that
# parses. Artifacts land in target/bench-smoke/ (CI uploads trace.json on a
# failed run).
echo "== scenario report + Chrome trace smoke"
mkdir -p target/bench-smoke
cargo run --release -q -p cia-scenarios --bin scenario -- \
    run --suite builtin --scale smoke --seed 42 --only baseline-static \
    --out target/bench-smoke/report-smoke.jsonl \
    --trace-out target/bench-smoke/trace.json
report_out=$(cargo run --release -q -p cia-scenarios --bin scenario -- \
    report --check-trace target/bench-smoke/trace.json \
    target/bench-smoke/report-smoke.jsonl)
echo "$report_out"
if echo "$report_out" | grep -q "no trace records"; then
    echo "error: timed run produced no trace records" >&2
    exit 1
fi

if [ "${CIA_SKIP_REDUNDANT_GATES:-0}" != 1 ]; then
    echo "== cargo test --workspace -q"
    cargo test --workspace -q
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "bench smoke OK"
