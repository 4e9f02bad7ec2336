//! Chrome trace-event export for scenario runs.
//!
//! Converts the per-round [`TraceChunk`](cia_core::TraceChunk)s a scenario run drains from its
//! recorder into the Chrome trace-event JSON format — loadable in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) — so a
//! paper-scale round's phase structure can be inspected on a real timeline
//! instead of through aggregate tables.
//!
//! Mapping:
//!
//! * each scenario becomes one *process* (`pid` = 1-based scenario index)
//!   named via an `M` (metadata) `process_name` event;
//! * every recorded span becomes an `X` (complete) event at its original
//!   monotonic timestamp (`ts`/`dur` in µs, the format's native unit) on the
//!   thread that recorded it (`tid` = the recorder's dense thread id);
//! * counters become `C` (counter) events carrying the *cumulative* value
//!   per counter at the end of each round, so Perfetto renders them as
//!   monotone step functions.
//!
//! The output is assembled with the in-tree [`Json`] writer, so it is
//! deterministic given the recorded timings (the timings themselves are
//! wall-clock and therefore vary run to run — trace files are diagnostics,
//! never goldens).

use crate::json::{Json, ObjBuilder};
use crate::runner::ScenarioOutcome;
use cia_core::Counter;

/// Builds a Chrome trace-event document (`{"traceEvents": [...]}`) from the
/// trace chunks of a slice of scenario outcomes.
pub fn chrome_trace(outcomes: &[ScenarioOutcome]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for (idx, outcome) in outcomes.iter().enumerate() {
        let pid = (idx + 1) as f64;
        events.push(
            ObjBuilder::new()
                .str("name", "process_name")
                .str("ph", "M")
                .num("pid", pid)
                .num("tid", 0.0)
                .value("args", ObjBuilder::new().str("name", &outcome.name).build())
                .build(),
        );
        // Cumulative counter values across the scenario's rounds.
        let mut totals: Vec<(Counter, u64)> = Vec::new();
        for (_round, chunk) in &outcome.traces {
            for s in &chunk.spans {
                events.push(
                    ObjBuilder::new()
                        .str("name", s.name)
                        .str("cat", "phase")
                        .str("ph", "X")
                        .num("ts", s.start_us as f64)
                        .num("dur", s.dur_us as f64)
                        .num("pid", pid)
                        .num("tid", s.tid as f64)
                        .build(),
                );
            }
            if chunk.counters.is_empty() {
                continue;
            }
            // Stamp the round's counter samples at the chunk's last span
            // end; chunks without spans fall back to the previous stamp.
            let ts = chunk.spans.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(0);
            for (c, delta) in &chunk.counters {
                match totals.iter_mut().find(|(tc, _)| tc == c) {
                    Some((_, v)) => *v += delta,
                    None => totals.push((*c, *delta)),
                }
            }
            for (c, total) in &totals {
                events.push(
                    ObjBuilder::new()
                        .str("name", c.name())
                        .str("ph", "C")
                        .num("ts", ts as f64)
                        .num("pid", pid)
                        .num("tid", 0.0)
                        .value("args", ObjBuilder::new().num("value", *total as f64).build())
                        .build(),
                );
            }
        }
    }
    ObjBuilder::new().value("traceEvents", Json::Arr(events)).str("displayTimeUnit", "ms").build()
}

/// Validates a Chrome trace-event document: parses it, checks the
/// `traceEvents` array and every event's phase-specific required fields.
/// Returns the event count.
///
/// # Errors
///
/// Returns a description of the first malformed event.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array".to_string())?;
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| format!("event {i}: {msg}");
        let ph = ev.get("ph").and_then(Json::as_str).ok_or_else(|| fail("missing `ph`"))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(fail("missing `name`"));
        }
        if ev.get("pid").and_then(Json::as_u64).is_none() {
            return Err(fail("missing integral `pid`"));
        }
        match ph {
            "X" => {
                for key in ["ts", "dur", "tid"] {
                    if ev.get(key).and_then(Json::as_u64).is_none() {
                        return Err(fail(&format!("X event missing integral `{key}`")));
                    }
                }
            }
            "C" => {
                if ev.get("ts").and_then(Json::as_u64).is_none() {
                    return Err(fail("C event missing integral `ts`"));
                }
                let has_value =
                    ev.get("args").and_then(|a| a.get("value")).and_then(Json::as_u64).is_some();
                if !has_value {
                    return Err(fail("C event missing integral `args.value`"));
                }
            }
            "M" => {
                if ev.get("args").and_then(|a| a.get("name")).and_then(Json::as_str).is_none() {
                    return Err(fail("M event missing `args.name`"));
                }
            }
            other => return Err(fail(&format!("unsupported phase `{other}`"))),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_core::{AttackOutcome, SpanRec, TraceChunk};
    use std::time::Duration;

    fn outcome_with(name: &str, traces: Vec<(u64, TraceChunk)>) -> ScenarioOutcome {
        let attack = AttackOutcome {
            k: 0,
            max_aac: 0.0,
            best10_aac: 0.0,
            max_round: 0,
            random_bound: 0.0,
            upper_bound: 0.0,
            upper_bound_online: 0.0,
            history: Vec::new(),
        };
        ScenarioOutcome {
            name: name.to_string(),
            attack,
            utility: None,
            utility_metric: "hr@20",
            rounds_done: traces.len() as u64,
            completed: true,
            elapsed: Duration::ZERO,
            traces,
        }
    }

    fn span(name: &'static str, depth: u16, start_us: u64, dur_us: u64) -> SpanRec {
        SpanRec { name, tid: 0, depth, start_us, dur_us }
    }

    #[test]
    fn assembles_a_valid_chrome_trace() {
        let chunk0 = TraceChunk {
            spans: vec![span("round", 0, 0, 100), span("train", 1, 10, 50)],
            counters: vec![(Counter::ClientsTrained, 3)],
            hists: Vec::new(),
        };
        let chunk1 = TraceChunk {
            spans: vec![span("round", 0, 100, 80), span("train", 1, 110, 40)],
            counters: vec![(Counter::ClientsTrained, 4)],
            hists: Vec::new(),
        };
        let doc = chrome_trace(&[outcome_with("demo", vec![(0, chunk0), (1, chunk1)])]);
        let text = doc.render();
        let n = validate_chrome_trace(&text).unwrap();
        // 1 metadata + 4 span events + 2 counter samples.
        assert_eq!(n, 7);
        // Counter samples are cumulative: 3 then 7.
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let samples: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .map(|e| e.get("args").unwrap().get("value").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(samples, vec![3, 7]);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"{"events": []}"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": [{"ph": "X", "pid": 1}]}"#).is_err());
        let no_dur = r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 1, "pid": 1, "tid": 0}]}"#;
        assert!(validate_chrome_trace(no_dur).is_err());
        assert_eq!(validate_chrome_trace(r#"{"traceEvents": []}"#).unwrap(), 0);
    }
}
