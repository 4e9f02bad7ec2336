//! Observability-layer guarantees at the runner level:
//!
//! * tracing is *always* active (the runner enables span detail on every
//!   scenario), yet `--no-timing` streams stay byte-identical and free of
//!   `trace` records — the determinism contract survives instrumentation;
//! * timed streams carry schema-valid `trace` records whose named phases
//!   cover the round wall-clock;
//! * the registry-backed `bytes_materialized` values are bit-identical to
//!   the pre-registry baseline captured from the old ad-hoc plumbing;
//! * after a kill/resume, trace records cover only post-resume rounds
//!   (recorder state is deliberately not checkpointed — see
//!   `cia_scenarios::checkpoint`);
//! * the Chrome trace-event export is well-formed.

use cia_data::presets::Scale;
use cia_scenarios::runner::{run_scenario, run_suite, validate_jsonl, RunOptions};
use cia_scenarios::{builtin_suite, chrome_trace, summarize, validate_chrome_trace};
use std::path::PathBuf;

/// Temp directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cia-trace-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn no_timing_streams_are_byte_identical_and_trace_free() {
    let suite = builtin_suite(Scale::Smoke, 42);
    let mut a = Vec::new();
    let outcomes = run_suite(&suite, &RunOptions::default(), &mut a).unwrap();
    let mut b = Vec::new();
    run_suite(&suite, &RunOptions::default(), &mut b).unwrap();
    assert_eq!(a, b, "untimed runs diverged with tracing active");
    let text = String::from_utf8(a).unwrap();
    assert!(!text.contains("\"type\":\"trace\""), "untimed stream leaked trace records");
    // The recorder still ran: every outcome drained per-round chunks with
    // spans in them (rounds + the final utility pass).
    for o in &outcomes {
        assert_eq!(o.traces.len() as u64, o.rounds_done + 1, "{}: missing chunks", o.name);
        assert!(
            o.traces.iter().all(|(_, c)| !c.spans.is_empty()),
            "{}: recorder produced no spans",
            o.name
        );
    }
}

#[test]
fn timed_streams_carry_schema_valid_trace_records_with_phase_coverage() {
    let suite = builtin_suite(Scale::Smoke, 42);
    let opts = RunOptions { timing: true, ..RunOptions::default() };
    let mut buf = Vec::new();
    run_suite(&suite, &opts, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    validate_jsonl(&text).unwrap();
    let reports = summarize(&text).unwrap();
    assert_eq!(reports.len(), 3, "one report per builtin scenario");
    for r in &reports {
        // One trace record per round plus the utility chunk.
        assert!(r.traced_rounds > 1, "{}: no trace records", r.scenario);
        assert!(r.round_us_total > 0, "{}: no round time traced", r.scenario);
        // Named phases must attribute the bulk of round wall-clock. The
        // acceptance bar for paper-scale runs is 95%; smoke rounds are
        // sub-millisecond, so leave slack for scheduler noise here.
        let cov = r.coverage().unwrap();
        assert!(cov > 0.5, "{}: phase coverage {:.1}% too low", r.scenario, 100.0 * cov);
        let phases: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        for expected in ["train", "evaluate", "emit", "other"] {
            assert!(phases.contains(&expected), "{}: missing phase {expected}", r.scenario);
        }
        assert!(
            r.counters.iter().any(|(n, v)| n == "clients_trained" && *v > 0),
            "{}: clients_trained missing",
            r.scenario
        );
    }
}

#[test]
fn registry_backed_bytes_materialized_matches_pre_registry_baseline() {
    // Pin of `bytes_materialized` on the builtin smoke suite (seed 42).
    // The gossip values were captured *before* the ad-hoc byte plumbing
    // moved onto the `cia_obs` counter registry, which must reproduce them
    // bit-identically. The FL attack folds its momentum on the training
    // workers, so FL rounds without DP materialize no snapshot at all.
    let suite = builtin_suite(Scale::Smoke, 42);
    let opts = RunOptions { timing: true, ..RunOptions::default() };
    let mut buf = Vec::new();
    run_suite(&suite, &opts, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let bytes_at = |scenario: &str, round: u64| -> u64 {
        for line in text.lines() {
            if line.contains("\"type\":\"round_eval\"")
                && line.contains(&format!("\"scenario\":\"{scenario}\""))
                && line.contains(&format!("\"round\":{round},"))
            {
                let field = "\"bytes_materialized\":";
                let start = line.find(field).expect("timed round_eval has the field") + field.len();
                let rest = &line[start..];
                let end = rest.find([',', '}']).unwrap();
                return rest[..end].parse().unwrap();
            }
        }
        panic!("no round_eval for {scenario} round {round}");
    };
    for round in [1, 3, 5, 7] {
        assert_eq!(bytes_at("baseline-static", round), 0);
        assert_eq!(bytes_at("churn-20pct", round), 0);
    }
    for round in [9, 19, 29, 39] {
        assert_eq!(bytes_at("colluding-sybils", round), 248_832);
    }
}

#[test]
fn resume_trace_covers_only_post_resume_rounds() {
    // colluding-sybils (GL, 40 rounds): kill at 20, resume to completion.
    let spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[2].clone();
    let dir = TempDir::new("resume");
    let ckpt = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: 10,
        ..RunOptions::default()
    };
    let mut partial = Vec::new();
    let killed = run_scenario(
        &spec,
        "t",
        &RunOptions { stop_after_rounds: Some(20), ..ckpt.clone() },
        &mut partial,
    )
    .unwrap();
    assert_eq!(killed.rounds_done, 20);
    assert!(killed.traces.iter().all(|(r, _)| *r < 20), "killed run traced beyond its stop");
    assert_eq!(killed.traces.len(), 20);

    let mut rest = Vec::new();
    let resumed =
        run_scenario(&spec, "t", &RunOptions { resume: true, ..ckpt }, &mut rest).unwrap();
    assert!(resumed.completed);
    // Fresh recorder after resume: chunks for rounds 20..40 plus the
    // utility pass at round == total, nothing from before the kill.
    assert!(
        resumed.traces.iter().all(|(r, _)| (20..=40).contains(r)),
        "resumed run reported pre-resume trace rounds"
    );
    assert_eq!(resumed.traces.first().map(|(r, _)| *r), Some(20));
    assert_eq!(resumed.traces.len(), 21);
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let suite = builtin_suite(Scale::Smoke, 42);
    let mut sink = std::io::sink();
    let outcomes = run_suite(&suite, &RunOptions::default(), &mut sink).unwrap();
    let doc = chrome_trace(&outcomes);
    let text = doc.render();
    let events = validate_chrome_trace(&text).unwrap();
    // At least one metadata event per scenario plus spans and counters.
    assert!(events > outcomes.len() * 10, "suspiciously few trace events: {events}");
    // Process names match the scenario names.
    for o in &outcomes {
        assert!(text.contains(&format!("\"name\":\"{}\"", o.name)), "{} missing", o.name);
    }
}
