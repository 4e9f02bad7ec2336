//! Turns the JSON-lines stream the vendored criterion harness emits (via the
//! `CRITERION_JSON` env var) into `BENCH_kernels.json`: one entry per
//! benchmark, with a `speedup` field wherever an optimized benchmark has a
//! `_scalar_ref` or `_naive` twin.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
}

/// Suffixes marking a benchmark as the scalar/naive baseline of its pair.
const BASELINE_SUFFIXES: [&str; 2] = ["_scalar_ref", "_naive"];

/// Parses the `{"name": ..., "median_ns": ...}` JSON lines the harness
/// appends. Later duplicates win (a re-run overwrites the previous result).
#[must_use]
pub fn parse_jsonl(input: &str) -> Vec<Measurement> {
    let mut seen: BTreeMap<String, f64> = BTreeMap::new();
    for line in input.lines() {
        let Some(name) = field_str(line, "name") else { continue };
        let Some(median) = field_num(line, "median_ns") else { continue };
        seen.insert(name, median);
    }
    seen.into_iter().map(|(name, median_ns)| Measurement { name, median_ns }).collect()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .map_or(line.len(), |e| e + start);
    line[start..end].parse().ok()
}

/// Renders the report: every measurement, plus `baseline_ns`/`speedup`
/// entries pairing optimized benchmarks with their `_scalar_ref`/`_naive`
/// twins.
#[must_use]
pub fn render_report(measurements: &[Measurement]) -> String {
    let by_name: BTreeMap<&str, f64> =
        measurements.iter().map(|m| (m.name.as_str(), m.median_ns)).collect();
    let mut out = String::from("[\n");
    let mut first = true;
    for m in measurements {
        if BASELINE_SUFFIXES.iter().any(|s| m.name.ends_with(s)) {
            continue; // folded into its optimized twin
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(out, "  {{\"name\": \"{}\", \"median_ns\": {:.1}", m.name, m.median_ns);
        let baseline =
            BASELINE_SUFFIXES.iter().find_map(|s| by_name.get(format!("{}{}", m.name, s).as_str()));
        if let Some(&base) = baseline {
            let _ = write!(
                out,
                ", \"baseline_ns\": {:.1}, \"speedup\": {:.2}",
                base,
                base / m.median_ns
            );
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"name": "kernel_dot_1024", "median_ns": 100.0, "min_ns": 90.0, "max_ns": 120.0}
{"name": "kernel_dot_1024_scalar_ref", "median_ns": 400.0, "min_ns": 390.0, "max_ns": 410.0}
{"name": "gt_topk", "median_ns": 50.0, "min_ns": 49.0, "max_ns": 52.0}
{"name": "gt_topk_naive", "median_ns": 500.0, "min_ns": 480.0, "max_ns": 520.0}
{"name": "lonely_bench", "median_ns": 7.5, "min_ns": 7.0, "max_ns": 8.0}
"#;

    #[test]
    fn parses_and_pairs_baselines() {
        let ms = parse_jsonl(SAMPLE);
        assert_eq!(ms.len(), 5);
        let report = render_report(&ms);
        assert!(report.contains("\"name\": \"kernel_dot_1024\""));
        assert!(report.contains("\"speedup\": 4.00"));
        assert!(report.contains("\"speedup\": 10.00"));
        // Baselines are folded, not listed standalone.
        assert!(!report.contains("\"name\": \"kernel_dot_1024_scalar_ref\""));
        // Unpaired benchmarks appear without a speedup field.
        assert!(report.contains("\"name\": \"lonely_bench\", \"median_ns\": 7.5}"));
    }

    #[test]
    fn rerun_lines_overwrite_earlier_ones() {
        let twice = format!(
            "{SAMPLE}{}",
            "{\"name\": \"lonely_bench\", \"median_ns\": 9.0, \"min_ns\": 9.0, \"max_ns\": 9.0}\n"
        );
        let ms = parse_jsonl(&twice);
        let lonely = ms.iter().find(|m| m.name == "lonely_bench").unwrap();
        assert_eq!(lonely.median_ns, 9.0);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let ms = parse_jsonl("not json\n{\"name\": \"x\"}\n{\"median_ns\": 3}\n");
        assert!(ms.is_empty());
        assert_eq!(render_report(&ms), "[\n\n]\n");
    }
}
