//! Turns the JSON-lines stream the vendored criterion harness emits (via the
//! `CRITERION_JSON` env var) into `BENCH_kernels.json`: one entry per
//! benchmark, with a `speedup` field wherever an optimized benchmark has a
//! `_scalar_ref` or `_naive` twin, and the run's provenance (`git_rev`,
//! `nproc`, `cia_threads`) wherever its line carries one.

use cia_scenarios::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Where the measurement came from, when its line records it.
    pub provenance: Option<Provenance>,
}

/// The source tree and machine a measurement ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse --short HEAD`, suffixed `-dirty` for uncommitted edits.
    pub git_rev: String,
    /// Online cores (`nproc`).
    pub nproc: u32,
    /// The `CIA_THREADS` the benchmark ran with.
    pub cia_threads: u32,
}

impl Provenance {
    fn parse(line: &Json) -> Option<Self> {
        let count = |key| line.get(key)?.as_u64()?.try_into().ok();
        Some(Provenance {
            git_rev: line.get("git_rev")?.as_str()?.to_string(),
            nproc: count("nproc")?,
            cia_threads: count("cia_threads")?,
        })
    }
}

/// Suffixes marking a benchmark as the scalar/naive baseline of its pair.
const BASELINE_SUFFIXES: [&str; 2] = ["_scalar_ref", "_naive"];

/// Parses the `{"name": ..., "median_ns": ...}` JSON lines the harness
/// appends, with the optional `git_rev`/`nproc`/`cia_threads` stamp
/// `scripts/bench_kernels.sh` adds, through the scenario engine's JSON
/// parser. Lines that do not parse, or lack a string `name` or a numeric
/// `median_ns`, are skipped. Later duplicates win (a re-run overwrites the
/// previous result).
#[must_use]
pub fn parse_jsonl(input: &str) -> Vec<Measurement> {
    let mut seen: BTreeMap<String, Measurement> = BTreeMap::new();
    for line in input.lines().filter_map(|line| Json::parse(line).ok()) {
        let Some(name) = line.get("name").and_then(Json::as_str) else { continue };
        let Some(median_ns) = line.get("median_ns").and_then(Json::as_f64) else { continue };
        let provenance = Provenance::parse(&line);
        seen.insert(
            name.to_string(),
            Measurement { name: name.to_string(), median_ns, provenance },
        );
    }
    seen.into_values().collect()
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
        if let Some(p) = &m.provenance {
            let _ = write!(
                out,
                ", \"git_rev\": \"{}\", \"nproc\": {}, \"cia_threads\": {}",
                p.git_rev, p.nproc, p.cia_threads
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
    fn stamped_lines_keep_their_provenance() {
        let stamped = format!(
            "{SAMPLE}{}",
            r#"{"name": "lonely_bench", "median_ns": 9.0, "git_rev": "abc1234-dirty", "nproc": 2, "cia_threads": 1}"#
        );
        let ms = parse_jsonl(&stamped);
        let lonely = ms.iter().find(|m| m.name == "lonely_bench").unwrap();
        let want = Provenance { git_rev: "abc1234-dirty".into(), nproc: 2, cia_threads: 1 };
        assert_eq!(lonely.provenance, Some(want));
        let report = render_report(&ms);
        assert!(
            report.contains(r#"{"name": "lonely_bench", "median_ns": 9.0, "git_rev": "abc1234-dirty", "nproc": 2, "cia_threads": 1}"#),
            "{report}"
        );
        // Unstamped rows render as before.
        assert!(report.contains(
            r#"{"name": "gt_topk", "median_ns": 50.0, "baseline_ns": 500.0, "speedup": 10.00}"#
        ));
    }

    #[test]
    fn malformed_lines_are_skipped() {
        // A `median_ns` below the top level is no measurement.
        let nested = r#"{"name": "y", "meta": {"median_ns": 3}}"#;
        let ms = parse_jsonl(&format!(
            "not json\n{{\"name\": \"x\"}}\n{{\"median_ns\": 3}}\n{nested}\n"
        ));
        assert!(ms.is_empty());
        assert_eq!(render_report(&ms), "[\n\n]\n");
    }
}
