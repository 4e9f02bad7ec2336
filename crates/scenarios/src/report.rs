//! Aggregates run JSONL into per-phase / per-round summary tables.
//!
//! `scenario report FILE...` feeds the JSONL streams `scenario run`
//! produces (with timing on) through [`summarize`] and prints, per
//! `(suite, scenario, seed)` group:
//!
//! * a phase table — total / mean / p50 / p99 µs per phase across the
//!   traced rounds, plus each phase's share of total round time;
//! * counter totals (clients trained, bytes on the wire, bytes
//!   materialized, …) summed over the run;
//! * the RSS trajectory — first / last `peak_rss_bytes` seen in the
//!   `round_eval` stream (the value is the OS's monotone high-water mark,
//!   so "last" is also the peak).
//!
//! Quantiles are exact rank statistics over the per-round phase values
//! (rounds per scenario number in the tens to hundreds — no need for the
//! histogram sketch the recorder uses for per-client latencies).

use crate::json::Json;
use cia_core::obs::nearest_rank;

/// Aggregate statistics for one phase across a scenario's traced rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (span name, or `other` for unattributed round time).
    pub name: String,
    /// Sum of the phase's µs over all traced rounds.
    pub total_us: u64,
    /// Mean µs per traced round.
    pub mean_us: u64,
    /// Median µs (rank statistic over rounds).
    pub p50_us: u64,
    /// 99th percentile µs (rank statistic over rounds).
    pub p99_us: u64,
}

/// The report for one `(suite, scenario, seed)` group.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Suite name.
    pub suite: String,
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Number of `trace` records seen.
    pub traced_rounds: u64,
    /// Sum of `round_us` over all traced rounds.
    pub round_us_total: u64,
    /// Per-phase statistics, in first-appearance order.
    pub phases: Vec<PhaseStat>,
    /// Counter totals, in first-appearance order.
    pub counters: Vec<(String, u64)>,
    /// Mean of the `mean_loss` values across evaluated rounds that carried
    /// one. All-offline rounds omit the field entirely and are *skipped*
    /// here — they would otherwise deflate the average with `0.0`
    /// sentinels.
    pub loss_mean: Option<f64>,
    /// Number of `round_eval` records that carried a `mean_loss`.
    pub loss_rounds: u64,
    /// First `peak_rss_bytes` seen in the `round_eval` stream.
    pub rss_first: Option<u64>,
    /// Last `peak_rss_bytes` seen (the high-water mark is monotone, so this
    /// is also the run's peak).
    pub rss_last: Option<u64>,
}

impl ScenarioReport {
    /// Fraction of total round time attributed to named phases (everything
    /// except `other`), in `[0, 1]`. `None` when no round time was traced.
    pub fn coverage(&self) -> Option<f64> {
        if self.round_us_total == 0 {
            return None;
        }
        let other: u64 = self.phases.iter().filter(|p| p.name == "other").map(|p| p.total_us).sum();
        Some(1.0 - other as f64 / self.round_us_total as f64)
    }
}

/// Exact rank quantile over unsorted values, indexed by the *shared*
/// nearest-rank definition (`cia_obs::nearest_rank`) that also drives the
/// recorder histogram's bucket walk — one convention, two views, so p50/p99
/// in report tables and trace records can never disagree on rank selection
/// (the bucket walk still reports an upper edge where this reports an exact
/// value). Public so the cross-checking property test in
/// `tests/properties.rs` can pin the agreement.
#[must_use]
pub fn rank_quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = nearest_rank(q, values.len() as u64) as usize;
    values[rank - 1]
}

struct Group {
    report: ScenarioReport,
    // Per-phase per-round values, parallel to `report.phases`.
    phase_rounds: Vec<Vec<u64>>,
    // Running sum of the `mean_loss` values seen (skipping absent fields).
    loss_sum: f64,
}

/// Parses a run JSONL stream and aggregates its `trace` and `round_eval`
/// records into one [`ScenarioReport`] per `(suite, scenario, seed)`, in
/// first-appearance order.
///
/// # Errors
///
/// Returns the line number and reason of the first unparsable record.
pub fn summarize(input: &str) -> Result<Vec<ScenarioReport>, String> {
    let mut groups: Vec<Group> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let fail = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(&fail)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("record has no `type`".to_string()))?;
        if kind != "trace" && kind != "round_eval" {
            continue;
        }
        let key_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| fail(format!("record has no `{name}`")))
        };
        let suite = key_field("suite")?;
        let scenario = key_field("scenario")?;
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("record has no integral `seed`".to_string()))?;
        let group = match groups.iter_mut().find(|g| {
            g.report.suite == suite && g.report.scenario == scenario && g.report.seed == seed
        }) {
            Some(g) => g,
            None => {
                groups.push(Group {
                    report: ScenarioReport {
                        suite,
                        scenario,
                        seed,
                        traced_rounds: 0,
                        round_us_total: 0,
                        phases: Vec::new(),
                        counters: Vec::new(),
                        loss_mean: None,
                        loss_rounds: 0,
                        rss_first: None,
                        rss_last: None,
                    },
                    phase_rounds: Vec::new(),
                    loss_sum: 0.0,
                });
                groups.last_mut().expect("just pushed")
            }
        };
        match kind {
            "round_eval" => {
                if let Some(rss) = v.get("peak_rss_bytes").and_then(Json::as_u64) {
                    group.report.rss_first.get_or_insert(rss);
                    group.report.rss_last = Some(rss);
                }
                // Absent on all-offline rounds — skipped, not counted as 0.
                if let Some(loss) = v.get("mean_loss").and_then(Json::as_f64) {
                    group.loss_sum += loss;
                    group.report.loss_rounds += 1;
                }
            }
            "trace" => {
                group.report.traced_rounds += 1;
                if let Some(us) = v.get("round_us").and_then(Json::as_u64) {
                    group.report.round_us_total += us;
                }
                let span_us = v
                    .get("span_us")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| fail("trace record has no `span_us` object".to_string()))?;
                for (name, val) in span_us {
                    let us = val
                        .as_u64()
                        .ok_or_else(|| fail(format!("span_us.{name} is not integral")))?;
                    match group.report.phases.iter().position(|p| &p.name == name) {
                        Some(i) => {
                            group.report.phases[i].total_us += us;
                            group.phase_rounds[i].push(us);
                        }
                        None => {
                            group.report.phases.push(PhaseStat {
                                name: name.clone(),
                                total_us: us,
                                mean_us: 0,
                                p50_us: 0,
                                p99_us: 0,
                            });
                            group.phase_rounds.push(vec![us]);
                        }
                    }
                }
                let counters = v
                    .get("counters")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| fail("trace record has no `counters` object".to_string()))?;
                for (name, val) in counters {
                    let delta = val
                        .as_u64()
                        .ok_or_else(|| fail(format!("counters.{name} is not integral")))?;
                    match group.report.counters.iter_mut().find(|(n, _)| n == name) {
                        Some((_, total)) => *total += delta,
                        None => group.report.counters.push((name.clone(), delta)),
                    }
                }
            }
            _ => unreachable!("filtered above"),
        }
    }
    Ok(groups
        .into_iter()
        .map(|mut g| {
            for (phase, rounds) in g.report.phases.iter_mut().zip(&mut g.phase_rounds) {
                phase.mean_us = phase.total_us / rounds.len().max(1) as u64;
                phase.p50_us = rank_quantile(rounds, 0.5);
                phase.p99_us = rank_quantile(rounds, 0.99);
            }
            if g.report.loss_rounds > 0 {
                g.report.loss_mean = Some(g.loss_sum / g.report.loss_rounds as f64);
            }
            g.report
        })
        .collect())
}

fn fmt_mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// Renders reports as human-readable tables (one block per scenario).
pub fn render(reports: &[ScenarioReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in reports {
        let _ = writeln!(out, "{} / {} (seed {})", r.suite, r.scenario, r.seed);
        if r.traced_rounds == 0 {
            let _ =
                writeln!(out, "  no trace records — rerun with timing enabled (drop --no-timing)");
        } else {
            let _ = writeln!(
                out,
                "  {} traced rounds, {:.1} ms total round time",
                r.traced_rounds,
                r.round_us_total as f64 / 1000.0
            );
            let _ = writeln!(
                out,
                "  {:<12} {:>12} {:>10} {:>10} {:>10} {:>7}",
                "phase", "total_us", "mean_us", "p50_us", "p99_us", "share"
            );
            for p in &r.phases {
                let share = if r.round_us_total == 0 {
                    0.0
                } else {
                    100.0 * p.total_us as f64 / r.round_us_total as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<12} {:>12} {:>10} {:>10} {:>10} {:>6.1}%",
                    p.name, p.total_us, p.mean_us, p.p50_us, p.p99_us, share
                );
            }
            if let Some(cov) = r.coverage() {
                let _ = writeln!(out, "  phase coverage: {:.1}% of round time", 100.0 * cov);
            }
            for (name, total) in &r.counters {
                let _ = writeln!(out, "  counter {name}: {total}");
            }
        }
        if let Some(loss) = r.loss_mean {
            let _ = writeln!(out, "  mean loss: {loss:.4} over {} evaluated rounds", r.loss_rounds);
        }
        match (r.rss_first, r.rss_last) {
            (Some(first), Some(last)) => {
                let _ = writeln!(out, "  rss: {} -> {} (peak)", fmt_mib(first), fmt_mib(last));
            }
            _ => {
                let _ = writeln!(out, "  rss: not recorded");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_line(scenario: &str, round: u64, train: u64, other: u64, clients: u64) -> String {
        format!(
            r#"{{"type":"trace","suite":"s","scenario":"{scenario}","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":7,"round":{round},"round_us":{},"span_us":{{"train":{train},"other":{other}}},"counters":{{"clients_trained":{clients}}}}}"#,
            train + other
        )
    }

    fn eval_line(scenario: &str, round: u64, rss: u64) -> String {
        format!(
            r#"{{"type":"round_eval","suite":"s","scenario":"{scenario}","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":7,"round":{round},"aac":0.5,"peak_rss_bytes":{rss}}}"#
        )
    }

    #[test]
    fn aggregates_phases_counters_and_rss_per_scenario() {
        let input = [
            eval_line("a", 1, 1_000_000),
            trace_line("a", 0, 100, 10, 3),
            trace_line("a", 1, 300, 30, 4),
            eval_line("a", 2, 2_000_000),
            trace_line("b", 0, 50, 5, 1),
        ]
        .join("\n");
        let reports = summarize(&input).unwrap();
        assert_eq!(reports.len(), 2);
        let a = &reports[0];
        assert_eq!((a.suite.as_str(), a.scenario.as_str(), a.seed), ("s", "a", 7));
        assert_eq!(a.traced_rounds, 2);
        assert_eq!(a.round_us_total, 440);
        let train = a.phases.iter().find(|p| p.name == "train").unwrap();
        assert_eq!(train.total_us, 400);
        assert_eq!(train.mean_us, 200);
        assert_eq!(train.p50_us, 100);
        assert_eq!(train.p99_us, 300);
        assert_eq!(a.counters, vec![("clients_trained".to_string(), 7)]);
        assert_eq!((a.rss_first, a.rss_last), (Some(1_000_000), Some(2_000_000)));
        // Coverage excludes `other`: 400 / 440.
        let cov = a.coverage().unwrap();
        assert!((cov - 400.0 / 440.0).abs() < 1e-12);
        assert_eq!(reports[1].scenario, "b");
        assert_eq!(reports[1].traced_rounds, 1);
    }

    #[test]
    fn untimed_streams_report_zero_traced_rounds() {
        let input = r#"{"type":"round_eval","suite":"s","scenario":"a","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":7,"round":1,"aac":0.5}"#;
        let reports = summarize(input).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].traced_rounds, 0);
        assert_eq!(reports[0].rss_first, None);
        assert!(render(&reports).contains("no trace records"));
    }

    #[test]
    fn rejects_malformed_records() {
        assert!(summarize("not json").is_err());
        assert!(summarize(r#"{"suite":"s"}"#).is_err());
        let bad = r#"{"type":"trace","suite":"s","scenario":"a","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":7,"round":0,"span_us":{"train":"fast"},"counters":{}}"#;
        assert!(summarize(bad).is_err());
    }

    #[test]
    fn render_includes_the_phase_table() {
        let input = trace_line("a", 0, 900, 100, 2);
        let text = render(&summarize(&input).unwrap());
        assert!(text.contains("s / a (seed 7)"));
        assert!(text.contains("train"));
        assert!(text.contains("phase coverage: 90.0% of round time"));
        assert!(text.contains("counter clients_trained: 2"));
    }

    #[test]
    fn render_totals_the_fold_wait_counter() {
        let wait = |round, us| {
            trace_line("a", round, 900, 100, 2).replace(
                r#""clients_trained":2"#,
                &format!(r#""clients_trained":2,"fold_wait_us":{us}"#),
            )
        };
        let input = [wait(0, 35), wait(1, 7)].join("\n");
        let text = render(&summarize(&input).unwrap());
        assert!(text.contains("counter fold_wait_us: 42"), "{text}");
    }
}
