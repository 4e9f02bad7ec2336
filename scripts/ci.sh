#!/usr/bin/env bash
# The exact CI pipeline — .github/workflows/ci.yml runs this script verbatim,
# so a green local run means a green CI run. Fail-fast: the first failing
# step aborts the pipeline; a step timing summary is printed either way.
#
# Everything runs offline against the vendored crates (vendor/): the
# workspace never touches a registry, and CARGO_NET_OFFLINE defends against
# accidental fetches.
#
# On a test failure the suspected golden drift is collected
# into target/golden-diff/ (actual transcripts and tables + unified diffs
# against crates/scenarios/tests/golden/ and
# crates/experiments/tests/golden/), which CI uploads as an artifact.
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

# Regenerates each scenario golden transcript and each experiment table and
# diffs it against the committed golden, so a red CI run ships the drift as an artifact instead
# of a bare assertion failure. Best-effort: only meaningful once the
# workspace builds.
collect_golden_diffs() {
    echo "== collecting golden diffs into target/golden-diff"
    local outdir=target/golden-diff
    rm -rf "$outdir"
    mkdir -p "$outdir"
    local golden s name
    # One transcript per golden: a committed suite file next to it
    # (<name>-smoke.suite.json) runs when there is one, the built-in suite
    # <name> otherwise.
    for golden in crates/scenarios/tests/golden/*-smoke.jsonl; do
        name=$(basename "$golden" -smoke.jsonl)
        s=crates/scenarios/tests/golden/$name-smoke.suite.json
        [ -f "$s" ] || s=$name
        cargo run --release -q -p cia-scenarios --bin scenario -- \
            run --suite "$s" --scale smoke --seed 42 --no-timing \
            --out "$outdir/$name-smoke.actual.jsonl" || continue
        if diff -u "$golden" "$outdir/$name-smoke.actual.jsonl" > "$outdir/$name-smoke.diff"; then
            # No drift in this suite; keep the artifact directory small.
            rm -f "$outdir/$name-smoke.diff" "$outdir/$name-smoke.actual.jsonl"
        else
            echo "   golden drift: $name (see $outdir/$name-smoke.diff)"
        fi
    done
    # Table goldens: `repro` prints the tables, then a timing line that is
    # not part of the golden.
    for golden in crates/experiments/tests/golden/*-smoke.txt; do
        name=$(basename "$golden" -smoke.txt)
        cargo run --release -q -p cia-experiments --bin repro -- "$name" --scale smoke --seed 42 \
            | sed '/^\[.* completed in .*\]$/,$d' > "$outdir/$name-smoke.actual.txt" || continue
        if diff -u "$golden" "$outdir/$name-smoke.actual.txt" > "$outdir/$name-smoke.diff"; then
            rm -f "$outdir/$name-smoke.diff" "$outdir/$name-smoke.actual.txt"
        else
            echo "   golden drift: $name (see $outdir/$name-smoke.diff)"
        fi
    done
}

# Runs a command and prints the peak RSS of its process tree afterwards —
# the memory companion to the timing summary, so a resident-set regression
# in the test suite is visible in every CI log. The container has no
# /usr/bin/time; `os.wait4` returns the same rusage, whose `ru_maxrss`
# (KiB) covers the command and every descendant it reaped. Exits with the
# command's status.
run_with_peak_rss() {
    python3 -c '
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
kib = usage.ru_maxrss
print(f"   peak RSS (children): {kib / 1048576:.2f} GiB ({kib} KiB)", flush=True)
code = os.waitstatus_to_exitcode(status)
sys.exit(code if code >= 0 else 128 - code)
' "$@"
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
        test) collect_golden_diffs || true ;;
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

# The CI cache keys on the hash of Cargo.lock, so a stale committed lockfile
# must fail the run. Any cargo command (fmt and the lint run included)
# silently rewrites it, e.g. dropping a deleted crate's entry, and
# `--locked` does not reject such an entry. So snapshot it before the first
# cargo command and compare once the build has resolved the workspace.
mkdir -p target
cp Cargo.lock target/Cargo.lock.committed
lockfile_unchanged() {
    if ! diff -u target/Cargo.lock.committed Cargo.lock; then
        echo "error: the build rewrote Cargo.lock; commit the rewritten lockfile" >&2
        return 1
    fi
}

step fmt-check cargo fmt --all --check
# The determinism & safety pass gates ahead of everything expensive: it
# compiles only the dependency-free cia-lint crate, so a rule violation
# fails the pipeline in seconds.
step lint run_cia_lint
step build cargo build --release --workspace
step lockfile lockfile_unchanged
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
# The scenario determinism gates: smoke suites, schema validation, kill/resume
# equality, the report and Chrome-trace smoke and the paper-scale transcript
# md5s (scripts/scenario_smoke.sh).
step scenario-smoke scripts/scenario_smoke.sh
# The benchmark harness's own unit tests (the compare rule and its
# fixtures); stdlib-only Python, no build needed.
step perfbench-tests python3 -m unittest discover -s perfbench/tests
# Keeps the benchmarks from bit-rotting: every bench body runs once.
step bench-test cargo bench -p cia-bench -- --test
# Clippy over all targets, benches included.
step clippy cargo clippy --workspace --all-targets -- -D warnings

echo
echo "ci OK"
