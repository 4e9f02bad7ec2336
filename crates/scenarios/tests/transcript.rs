//! The two readers of a run transcript, `validate_jsonl` (`scenario
//! validate`) and `summarize` (`scenario report`), accept exactly the same
//! records and refuse the rest with the same `line N:` reason:
//!
//! * every key of a golden `round_eval` and `scenario_summary`, and of a
//!   timed run's `round_eval`, `trace` and `scenario_summary` (nested keys
//!   of `span_us`, `counters`, `setup_us` and `hist` included), set in turn
//!   to each hostile value or deleted, gets one verdict from both readers,
//!   and a refusal names the key;
//! * a golden transcript with one byte flipped or cut off panics neither
//!   reader, and both refuse it with the same line message;
//! * every golden transcript passes both.

use cia_data::presets::Scale;
use cia_scenarios::json::Json;
use cia_scenarios::runner::{run_scenario, validate_jsonl, RunOptions};
use cia_scenarios::{builtin_suite, summarize};
use proptest::prelude::*;

const GOLDENS: [&str; 6] = [
    include_str!("golden/builtin-smoke.jsonl"),
    include_str!("golden/adaptive-sybils-smoke.jsonl"),
    include_str!("golden/defense-dynamics-grid-smoke.jsonl"),
    include_str!("golden/participation-sweep-smoke.jsonl"),
    include_str!("golden/pers-gossip-churn-smoke.jsonl"),
    include_str!("golden/prme-smoke.jsonl"),
];

/// The first record of type `kind` in a transcript.
fn first(text: &str, kind: &str) -> Json {
    text.lines()
        .map(|line| Json::parse(line).expect("golden records parse"))
        .find(|v| v.get("type").and_then(Json::as_str) == Some(kind))
        .unwrap_or_else(|| panic!("no `{kind}` record"))
}

/// Every key path of an object, depth first, parents before their keys.
fn key_paths(v: &Json, prefix: &[String], out: &mut Vec<Vec<String>>) {
    for (key, child) in v.as_obj().unwrap_or_default() {
        let path = [prefix, std::slice::from_ref(key)].concat();
        out.push(path.clone());
        key_paths(child, &path, out);
    }
}

/// `v` with the value at `path` replaced by `value`, or deleted for `None`.
fn mutate(v: &Json, path: &[String], value: Option<&Json>) -> Json {
    let Json::Obj(pairs) = v else { unreachable!("paths run through objects") };
    let mut pairs = pairs.clone();
    let i = pairs.iter().position(|(k, _)| *k == path[0]).expect("path exists");
    match (path.len(), value) {
        (1, Some(value)) => pairs[i].1 = value.clone(),
        (1, None) => drop(pairs.remove(i)),
        _ => pairs[i].1 = mutate(&pairs[i].1, &path[1..], value),
    }
    Json::Obj(pairs)
}

#[test]
fn every_mutated_key_gets_one_verdict_naming_the_key() {
    let mut timed = Vec::new();
    let spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap().remove(0);
    let opts = RunOptions { timing: true, ..RunOptions::default() };
    run_scenario(&spec, "builtin-smoke", &opts, &mut timed).unwrap();
    let timed = String::from_utf8(timed).unwrap();
    let golden = GOLDENS[0];
    let records = [
        first(golden, "round_eval"),
        first(golden, "scenario_summary"),
        first(&timed, "round_eval"),
        first(&timed, "trace"),
        first(&timed, "scenario_summary"),
    ];
    assert!(records[4].get("setup_us").is_some() && records[3].get("hist").is_some());
    let hostile: Vec<Json> = ["-1", "0.5", "1.5", "9007199254740992", "1e308", r#""x""#]
        .into_iter()
        .chain(["null", "true", "{}", "[]"])
        .map(|text| Json::parse(text).unwrap())
        .collect();
    let stream = |records: &[Json]| records.iter().map(|r| r.render() + "\n").collect::<String>();
    assert!(validate_jsonl(&stream(&records)).is_ok() && summarize(&stream(&records)).is_ok());
    let (mut cases, mut refused) = (0, 0);
    for (at, record) in records.iter().enumerate() {
        let mut paths = Vec::new();
        key_paths(record, &[], &mut paths);
        for path in &paths {
            for value in hostile.iter().map(Some).chain([None]) {
                let mut mutated = records.clone();
                mutated[at] = mutate(record, path, value);
                let text = stream(&mutated);
                cases += 1;
                match (validate_jsonl(&text), summarize(&text)) {
                    (Ok(_), Ok(_)) => {}
                    (Err(validate), Err(report)) => {
                        refused += 1;
                        assert_eq!(validate, report, "{path:?} = {value:?}");
                        let leaf = path.last().expect("non-empty path");
                        assert!(
                            validate.starts_with(&format!("line {}: ", at + 1))
                                && validate.contains(leaf.as_str()),
                            "{path:?} = {value:?}: `{validate}` does not name the key"
                        );
                    }
                    (validate, report) => {
                        panic!("{path:?} = {value:?}: validate {validate:?}, report {report:?}")
                    }
                }
            }
        }
    }
    assert!(refused > cases / 2, "only {refused} of {cases} mutations refused");
}

#[test]
fn every_golden_transcript_passes_both_readers() {
    for golden in GOLDENS {
        validate_jsonl(golden).unwrap();
        assert!(!summarize(golden).unwrap().is_empty());
    }
}

proptest! {
    #[test]
    fn mangled_transcripts_get_one_verdict_without_panic(
        pick in 0usize..GOLDENS.len(),
        at in 0usize..1 << 20,
        flip in 1u8..=255,
        truncate in 0u32..2,
    ) {
        let mut text = GOLDENS[pick].as_bytes().to_vec();
        let at = at % text.len();
        if truncate == 1 {
            text.truncate(at);
        } else {
            text[at] ^= flip;
        }
        let text = String::from_utf8_lossy(&text);
        let (validate, report) = (validate_jsonl(&text), summarize(&text));
        // A stream without any `round_eval` or summary is refused only by
        // `validate`; a refused record is refused by both, alike.
        if let Err(e) = &validate {
            if e.starts_with("line ") {
                prop_assert_eq!(report.as_ref().err(), Some(e));
            }
        }
        if let Err(e) = report {
            prop_assert_eq!(validate.err(), Some(e));
        }
    }
}
