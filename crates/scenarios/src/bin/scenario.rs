//! `scenario` — run declarative scenario suites.
//!
//! ```text
//! scenario run [--suite NAME|FILE] [--scale smoke|small|paper] [--seed N]
//!              [--only NAME] [--out FILE] [--checkpoint-dir DIR]
//!              [--checkpoint-every N] [--resume] [--stop-after N]
//!              [--no-timing] [--trace-out FILE]
//! scenario list [--scale ...] [--seed N]
//! scenario validate FILE
//! scenario report [--check-trace FILE] FILE...
//! ```
//!
//! `--suite` accepts a built-in suite name — `builtin`,
//! `participation-sweep`, `defense-dynamics-grid`, `pers-gossip-churn`,
//! `adaptive-sybils` — or a path to a suite JSON document (which may contain `sweep` generator
//! blocks; see `crates/scenarios/README.md`).
//!
//! `run` executes a suite deterministically from its seed and streams one
//! JSONL record per (scenario, evaluation round) plus a summary per
//! scenario. With `--checkpoint-dir` the full run state (model params,
//! attack momentum, tracker, dynamics) is saved every `--checkpoint-every`
//! rounds; a killed run continues with `--resume` and lands on the same
//! final metrics as an uninterrupted one. `--trace-out` additionally writes
//! a Chrome trace-event file (phase spans + counter tracks) loadable in
//! Perfetto / `chrome://tracing`. Each protocol round runs as one fused
//! loop that fans out over `CIA_THREADS` workers; the transcript is
//! byte-identical for any thread count.
//!
//! `report` aggregates one or more run JSONL streams into per-phase
//! mean/p50/p99 tables, counter totals and the RSS trajectory;
//! `--check-trace` also validates a Chrome trace file's structure.

#![forbid(unsafe_code)]

use cia_data::presets::Scale;
use cia_scenarios::runner::{run_scenarios, validate_jsonl, RunOptions};
use cia_scenarios::spec::{named_suite, BUILTIN_SUITES};
use cia_scenarios::{chrome_trace, render_report, summarize, validate_chrome_trace, SuiteSpec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() {
    eprintln!("usage: scenario <run|list|validate|report> [options]");
    eprintln!("  run      [--suite NAME|FILE] [--scale smoke|small|paper] [--seed N]");
    eprintln!("           [--only NAME] [--out FILE] [--checkpoint-dir DIR]");
    eprintln!("           [--checkpoint-every N] [--resume] [--stop-after N] [--no-timing]");
    eprintln!("           [--trace-out FILE]");
    eprintln!("  list     [--suite NAME|FILE] [--scale ...] [--seed N]");
    eprintln!("  validate FILE");
    eprintln!("  report   [--check-trace FILE] FILE...");
    eprintln!("built-in suites: {}", BUILTIN_SUITES.map(|(name, _)| name).join(", "));
}

struct Args {
    suite: String,
    scale: Scale,
    seed: u64,
    only: Option<String>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    opts: RunOptions,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        suite: "builtin".to_string(),
        scale: Scale::Smoke,
        seed: 42,
        only: None,
        out: None,
        trace_out: None,
        opts: RunOptions { timing: true, checkpoint_every: 5, ..RunOptions::default() },
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1).cloned().ok_or(format!("{flag} expects a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--suite" => {
                parsed.suite = value(args, i, "--suite")?;
                i += 2;
            }
            "--scale" => {
                parsed.scale = Scale::parse(&value(args, i, "--scale")?)
                    .ok_or("--scale expects smoke|small|paper")?;
                i += 2;
            }
            "--seed" => {
                parsed.seed =
                    value(args, i, "--seed")?.parse().map_err(|_| "--seed expects an integer")?;
                i += 2;
            }
            "--only" => {
                parsed.only = Some(value(args, i, "--only")?);
                i += 2;
            }
            "--out" => {
                parsed.out = Some(PathBuf::from(value(args, i, "--out")?));
                i += 2;
            }
            "--trace-out" => {
                parsed.trace_out = Some(PathBuf::from(value(args, i, "--trace-out")?));
                i += 2;
            }
            "--checkpoint-dir" => {
                parsed.opts.checkpoint_dir =
                    Some(PathBuf::from(value(args, i, "--checkpoint-dir")?));
                i += 2;
            }
            "--checkpoint-every" => {
                parsed.opts.checkpoint_every = value(args, i, "--checkpoint-every")?
                    .parse()
                    .map_err(|_| "--checkpoint-every expects an integer")?;
                i += 2;
            }
            "--stop-after" => {
                parsed.opts.stop_after_rounds = Some(
                    value(args, i, "--stop-after")?
                        .parse()
                        .map_err(|_| "--stop-after expects an integer")?,
                );
                i += 2;
            }
            "--resume" => {
                parsed.opts.resume = true;
                i += 1;
            }
            "--no-timing" => {
                parsed.opts.timing = false;
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn load_suite(args: &Args) -> Result<SuiteSpec, String> {
    if let Some(suite) = named_suite(&args.suite, args.scale, args.seed) {
        Ok(suite)
    } else {
        let text = std::fs::read_to_string(&args.suite)
            .map_err(|e| format!("cannot read {}: {e}", args.suite))?;
        SuiteSpec::parse(&text)
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    // Without checkpoints a resumed run restarts at round 0, and appending
    // it to `--out` would duplicate every record already in the stream.
    if args.opts.resume && args.opts.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir (there is nothing to resume from)".into());
    }
    let suite = load_suite(args)?;
    // Sweeps expand before filtering, so `--only` addresses the concrete
    // scenarios a sweep generates (e.g. `participation-0.5`).
    let mut scenarios = suite.expanded()?;
    if let Some(only) = &args.only {
        scenarios.retain(|s| &s.name == only);
        if scenarios.is_empty() {
            return Err(format!("no scenario named `{only}` in suite `{}`", suite.name));
        }
    }
    let stdout = std::io::stdout();
    let mut file;
    let mut lock;
    let sink: &mut dyn Write = match &args.out {
        Some(path) => {
            // Resumed runs append to the existing stream.
            file = std::fs::OpenOptions::new()
                .create(true)
                .append(args.opts.resume)
                .truncate(!args.opts.resume)
                .write(true)
                .open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            &mut file
        }
        None => {
            lock = stdout.lock();
            &mut lock
        }
    };
    let outcomes = run_scenarios(&scenarios, &suite.name, &args.opts, sink, |outcome| {
        if outcome.skipped {
            eprintln!(
                "[{}] already completed — skipping (records already in the stream)",
                outcome.name
            );
        } else if outcome.completed {
            eprintln!(
                "[{}] {} rounds, max AAC {:.1}% ({}x random), {}={:.3}, {:.1}s",
                outcome.name,
                outcome.rounds_done,
                outcome.attack.max_aac * 100.0,
                (outcome.attack.advantage_over_random() * 10.0).round() / 10.0,
                outcome.utility_metric,
                outcome.utility.unwrap_or(f64::NAN),
                outcome.elapsed.as_secs_f64(),
            );
        } else if args.opts.checkpoint_dir.is_some() {
            eprintln!(
                "[{}] stopped after round {} (checkpointed; rerun with --resume)",
                outcome.name, outcome.rounds_done
            );
        } else {
            eprintln!(
                "[{}] stopped after round {} (no --checkpoint-dir; this run cannot be resumed)",
                outcome.name, outcome.rounds_done
            );
        }
    })?;
    if let Some(path) = &args.trace_out {
        let doc = chrome_trace(&outcomes);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace: {} (load in Perfetto / chrome://tracing)", path.display());
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut check_trace: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check-trace" => {
                let path =
                    args.get(i + 1).cloned().ok_or("--check-trace expects a file".to_string())?;
                check_trace = Some(PathBuf::from(path));
                i += 2;
            }
            other => {
                files.push(PathBuf::from(other));
                i += 1;
            }
        }
    }
    if files.is_empty() && check_trace.is_none() {
        return Err("report expects at least one JSONL file (or --check-trace FILE)".to_string());
    }
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let reports = summarize(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("== {}", path.display());
        print!("{}", render_report(&reports));
    }
    if let Some(path) = &check_trace {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let events =
            validate_chrome_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}: OK ({events} trace events)", path.display());
    }
    Ok(())
}

fn cmd_list(args: &Args) -> Result<(), String> {
    let suite = load_suite(args)?;
    let scenarios = suite.expanded()?;
    println!(
        "suite: {} ({} scenarios from {} entries)",
        suite.name,
        scenarios.len(),
        suite.entries.len()
    );
    for s in &scenarios {
        let dynamics = if s.dynamics.is_static() {
            "static".to_string()
        } else {
            let mut parts = Vec::new();
            if s.dynamics.leave_prob > 0.0 {
                parts.push(format!(
                    "churn {:.0}%",
                    100.0 * s.dynamics.leave_prob / (s.dynamics.leave_prob + s.dynamics.join_prob)
                ));
            }
            if s.dynamics.straggler_fraction > 0.0 {
                parts.push(format!("stragglers {:.0}%", 100.0 * s.dynamics.straggler_fraction));
            }
            if s.dynamics.participation < 1.0 {
                parts.push(format!("participation {:.0}%", 100.0 * s.dynamics.participation));
            }
            if s.dynamics.sybils > 0 {
                parts.push(format!("{} sybils", s.dynamics.sybils));
                if s.dynamics.placement.is_adaptive() {
                    parts.push(format!(
                        "{} placement after {} warm-up rounds",
                        s.dynamics.placement.name(),
                        s.dynamics.placement_warmup
                    ));
                }
            }
            parts.join(", ")
        };
        println!(
            "  {:<20} {} × {} × {} × {:?} @ {} seed {} [{}]",
            s.name,
            s.preset.name(),
            s.model.name(),
            s.protocol.name(),
            s.defense,
            s.scale,
            s.seed,
            dynamics
        );
    }
    Ok(())
}

fn cmd_validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (evals, summaries) = validate_jsonl(&text)?;
    println!("{path}: OK ({evals} round_eval, {summaries} scenario_summary records)");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match command {
        "run" | "list" => match parse_args(&argv[1..]) {
            Ok(args) if command == "run" => cmd_run(&args),
            Ok(args) => cmd_list(&args),
            Err(e) => Err(e),
        },
        "validate" => match argv.get(1) {
            Some(path) => cmd_validate(path),
            None => Err("validate expects a file path".to_string()),
        },
        "report" => cmd_report(&argv[1..]),
        _ => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
