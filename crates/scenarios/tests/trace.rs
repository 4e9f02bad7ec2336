//! Observability-layer guarantees at the runner level:
//!
//! * tracing is *always* active (the runner enables span detail on every
//!   scenario), yet `--no-timing` streams stay byte-identical and free of
//!   `trace` records — the determinism contract survives instrumentation;
//! * timed streams carry schema-valid `trace` records whose named phases
//!   cover the round wall-clock, and each scenario summary carries its
//!   setup stages as `setup_us`, which untimed streams never see, and a
//!   suite builds each shared setup once;
//! * the registry-backed `bytes_materialized` values are bit-identical to
//!   the pre-registry baseline captured from the old ad-hoc plumbing;
//! * a resume replays from round 0, so its trace chunks cover every round,
//!   while its stream gets a `trace` record only for the rounds the resumed
//!   stream holds none for;
//! * the Chrome trace-event export is well-formed.

use cia_data::presets::Scale;
use cia_scenarios::json::Json;
use cia_scenarios::runner::{run_scenario, run_suite, validate_jsonl, RunOptions};
use cia_scenarios::{builtin_suite, chrome_trace, summarize, validate_chrome_trace};

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
    assert!(!text.contains("fold_wait_us"), "untimed stream leaked the fold wait");
    assert!(!text.contains("merge_wait_us"), "untimed stream leaked the merge wait");
    assert!(!text.contains("setup_us"), "untimed stream leaked the setup timings");
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
        // The summary times every setup stage, and setup takes time.
        let stages: Vec<&str> = r.setup_us.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(stages, ["generate", "split", "ground_truth", "clients"], "{}", r.scenario);
        assert!(r.setup_us.iter().any(|&(_, us)| us > 0), "{}: setup untimed", r.scenario);
    }
}

#[test]
fn a_suite_builds_each_setup_once_and_keeps_none_past_the_run() {
    let suite = builtin_suite(Scale::Smoke, 42);
    let specs = suite.expanded().unwrap();
    let key = |i: usize| (specs[i].preset, specs[i].scale, specs[i].k_override, specs[i].seed);
    assert!((1..specs.len()).all(|i| key(i) == key(0)), "the builtin scenarios share one setup");
    let opts = RunOptions { timing: true, ..RunOptions::default() };
    let generate_us = |text: Vec<u8>| -> Vec<u64> {
        let reports = summarize(&String::from_utf8(text).unwrap()).unwrap();
        reports
            .iter()
            .map(|r| r.setup_us.iter().find(|(s, _)| s == "generate").unwrap().1)
            .collect()
    };
    let mut buf = Vec::new();
    run_suite(&suite, &opts, &mut buf).unwrap();
    let suite_us = generate_us(buf);
    assert!(suite_us[0] > 0, "the first scenario builds the setup");
    assert!(suite_us[1..].iter().all(|&us| us == 0), "later scenarios reuse it: {suite_us:?}");
    // A scenario run on its own after the suite builds its setup again.
    let mut buf = Vec::new();
    run_scenario(&specs[1], &suite.name, &opts, &mut buf).unwrap();
    assert!(generate_us(buf)[0] > 0, "a setup outlived its suite");
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
fn resume_trace_covers_replayed_rounds_too() {
    // colluding-sybils (GL, 40 rounds): kill at 20, resume to completion,
    // both timed.
    let spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[2].clone();
    let timed = RunOptions { timing: true, ..RunOptions::default() };
    let mut partial = Vec::new();
    let killed = run_scenario(
        &spec,
        "t",
        &RunOptions { stop_after_rounds: Some(20), ..timed.clone() },
        &mut partial,
    )
    .unwrap();
    assert_eq!(killed.rounds_done, 20);
    assert!(killed.traces.iter().all(|(r, _)| *r < 20), "killed run traced beyond its stop");
    assert_eq!(killed.traces.len(), 20);

    let mut rest = Vec::new();
    let resume = RunOptions { resume: Some(String::from_utf8(partial.clone()).unwrap()), ..timed };
    let resumed = run_scenario(&spec, "t", &resume, &mut rest).unwrap();
    assert!(resumed.completed);
    // The replay reran rounds 0..20: chunks for every round plus the
    // utility pass at round == total.
    let rounds: Vec<u64> = resumed.traces.iter().map(|(r, _)| *r).collect();
    assert_eq!(rounds, (0..=40).collect::<Vec<_>>());
    // The stream already held trace records for rounds 0..20, so only the
    // rest were appended.
    let rest = String::from_utf8(rest).unwrap();
    let appended: Vec<u64> = rest
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .filter(|v| v.get("type").and_then(Json::as_str) == Some("trace"))
        .map(|v| v.get("round").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(appended, (20..=40).collect::<Vec<_>>());
    let stitched = String::from_utf8(partial).unwrap() + &rest;
    validate_jsonl(&stitched).unwrap();
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
