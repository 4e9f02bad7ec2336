#!/usr/bin/env bash
# The exact CI pipeline — .github/workflows/ci.yml runs this script verbatim,
# so a green local run means a green CI run. Fail-fast: the first failing
# step aborts the pipeline; a step timing summary is printed either way.
#
# Everything runs offline against the vendored crates (vendor/): the
# workspace never touches a registry, and CARGO_NET_OFFLINE defends against
# accidental fetches.
#
# On a test or bench-smoke failure the suspected golden-JSONL drift is
# collected into target/golden-diff/ (actual transcripts + unified diffs
# against crates/scenarios/tests/golden/), which CI uploads as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"
# Pinned worker count: results are byte-identical for any CIA_THREADS value
# (that invariance is itself under test), so CI pins a small count for
# reproducible timing on shared runners.
export CIA_THREADS="${CIA_THREADS:-2}"

step_names=()
step_secs=()
fail_step=""
total_start=$SECONDS

summary() {
    echo
    echo "== step timing summary"
    local i
    for i in "${!step_names[@]}"; do
        printf '   %-16s %5ss\n' "${step_names[$i]}" "${step_secs[$i]}"
    done
    printf '   %-16s %5ss\n' "total" "$((SECONDS - total_start))"
    if [ -n "$fail_step" ]; then
        echo "FAILED at step: $fail_step"
    fi
}
trap summary EXIT

# Regenerates each built-in suite transcript and diffs it against the
# committed golden, so a red CI run ships the drift as an artifact instead
# of a bare assertion failure. Best-effort: only meaningful once the
# workspace builds.
collect_golden_diffs() {
    echo "== collecting golden JSONL diffs into target/golden-diff"
    local outdir=target/golden-diff
    rm -rf "$outdir"
    mkdir -p "$outdir"
    local s
    for s in builtin participation-sweep defense-dynamics-grid pers-gossip-churn adaptive-sybils; do
        cargo run --release -q -p cia-scenarios --bin scenario -- \
            run --suite "$s" --scale smoke --seed 42 --no-timing \
            --out "$outdir/$s-smoke.actual.jsonl" || continue
        if diff -u "crates/scenarios/tests/golden/$s-smoke.jsonl" \
            "$outdir/$s-smoke.actual.jsonl" > "$outdir/$s-smoke.diff"; then
            # No drift in this suite; keep the artifact directory small.
            rm -f "$outdir/$s-smoke.diff" "$outdir/$s-smoke.actual.jsonl"
        else
            echo "   golden drift: $s (see $outdir/$s-smoke.diff)"
        fi
    done
}

# Runs a command and prints the peak RSS of its process tree afterwards —
# the memory companion to the timing summary, so a resident-set regression
# in the test suite is visible in every CI log. The container has no
# /usr/bin/time, so the in-tree probe (`scenario rss-probe`, produced by the
# build step) samples /proc VmHWM over the subtree; without the binary the
# command just runs bare.
run_with_peak_rss() {
    if [ -x target/release/scenario ]; then
        target/release/scenario rss-probe -- "$@"
    else
        "$@"
    fi
}

step() {
    local name="$1"
    shift
    echo
    echo "== $name: $*"
    local t0=$SECONDS
    if "$@"; then
        step_names+=("$name")
        step_secs+=($((SECONDS - t0)))
    else
        fail_step="$name"
        step_names+=("$name (failed)")
        step_secs+=($((SECONDS - t0)))
        case "$name" in
        test | bench-smoke) collect_golden_diffs || true ;;
        esac
        exit 1
    fi
}

run_cia_lint() {
    # --json --out leaves target/cia-lint.json behind for the CI artifact
    # upload on a red run; stdout carries the same report for the log.
    cargo run --release -q -p cia-lint --bin cia-lint -- \
        --json --out target/cia-lint.json
}

step fmt-check cargo fmt --all --check
# The determinism & safety pass gates ahead of everything expensive: it
# compiles only the dependency-free cia-lint crate, so a rule violation
# fails the pipeline in seconds.
step lint run_cia_lint
step build cargo build --release --workspace
# Rustdoc gate: a broken, unresolved or private intra-doc link (one a
# rename or merge left behind) fails the pipeline instead of rotting.
RUSTDOCFLAGS="-D warnings" step doc cargo doc --workspace --no-deps --offline
# The benchmark tracer is its own package built against the workspace
# crates' public API; building it here catches an API break before the
# benchmark pipeline does. Its own target dir stays under the ignored,
# cached target/.
CARGO_TARGET_DIR=target/tracer step tracer-build \
    cargo build --release --offline --manifest-path perfbench/tracer/Cargo.toml
step test run_with_peak_rss cargo test --workspace -q
# The benchmark harness's own unit tests (the compare rule and its
# fixtures); stdlib-only Python, no build needed.
step perfbench-tests python3 -m unittest discover -s perfbench/tests
# fmt-check, cia-lint and the workspace tests already ran above; tell
# bench_smoke.sh not to repeat them.
CIA_SKIP_REDUNDANT_GATES=1 step bench-smoke scripts/bench_smoke.sh

echo
echo "ci OK"
