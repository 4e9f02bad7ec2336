//! `scenario` — run declarative scenario suites.
//!
//! ```text
//! scenario run [--suite NAME|FILE] [--scale smoke|small|paper] [--seed N]
//!              [--only NAME] [--out FILE] [--resume] [--stop-after N]
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
//! scenario. A run stopped by `--stop-after N` (at round N of each
//! scenario) or killed continues with `--resume` into the same `--out` file:
//! it reruns the scenarios from round 0, checks every record it recomputes
//! against the file, and appends only what the file lacks, so the file ends
//! as an uninterrupted run's would. A file that does not match exits 1,
//! naming the line, and stays as it was. `--trace-out` additionally writes
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
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() {
    eprintln!("usage: scenario <run|list|validate|report> [options]");
    eprintln!("  run      [--suite NAME|FILE] [--scale smoke|small|paper] [--seed N]");
    eprintln!("           [--only NAME] [--out FILE] [--resume] [--stop-after N] [--no-timing]");
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
    resume: bool,
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
        resume: false,
        opts: RunOptions { timing: true, ..RunOptions::default() },
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
            "--stop-after" => {
                let rounds = value(args, i, "--stop-after")?
                    .parse()
                    .map_err(|_| "--stop-after expects an integer")?;
                if rounds == 0 {
                    return Err("--stop-after 0 would stop before the first round; give 1 or more"
                        .to_string());
                }
                parsed.opts.stop_after_rounds = Some(rounds);
                i += 2;
            }
            "--resume" => {
                parsed.resume = true;
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
    // A resume reads the stream a stopped or killed run left and appends to
    // it, so the stream must be a file.
    let resume_from = match (&args.out, args.resume) {
        (None, true) => return Err("--resume needs --out FILE (the stream to resume)".into()),
        (Some(path), true) => Some(read_stream(path)?),
        _ => None,
    };
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
    let mut file = match &args.out {
        Some(path) => Some(
            Appender::open(path, resume_from.as_deref())
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let stdout = std::io::stdout();
    let mut lock;
    let sink: &mut dyn Write = match &mut file {
        Some(file) => file,
        None => {
            lock = stdout.lock();
            &mut lock
        }
    };
    let opts = RunOptions { resume: resume_from, ..args.opts.clone() };
    let outcomes = run_scenarios(&scenarios, &suite.name, &opts, sink, |outcome| {
        if outcome.completed {
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
        } else if args.out.is_some() {
            eprintln!(
                "[{}] stopped after round {} (rerun with --resume)",
                outcome.name, outcome.rounds_done
            );
        } else {
            eprintln!(
                "[{}] stopped after round {} (the stream went to stdout; only an --out FILE run can be resumed)",
                outcome.name, outcome.rounds_done
            );
        }
    })?;
    if let (Some(file), Some(path)) = (&mut file, &args.out) {
        // Nothing appended: the torn line a kill left goes now.
        file.cut().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &args.trace_out {
        let doc = chrome_trace(&outcomes);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace: {} (load in Perfetto / chrome://tracing)", path.display());
    }
    Ok(())
}

/// The stream in `path` a resume continues; a missing file is an empty
/// stream, which resumes as a fresh run.
fn read_stream(path: &Path) -> Result<String, String> {
    match std::fs::read(path) {
        Ok(bytes) => String::from_utf8(bytes).map_err(|e| {
            format!("{}: not UTF-8 at byte {}", path.display(), e.utf8_error().valid_up_to())
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// The `--out` file. A fresh run truncates it. A resumed run appends after
/// the stream, and cuts the torn last line a kill may have left only once
/// it appends (or ends), so a refused resume leaves the file as it was.
struct Appender {
    file: std::fs::File,
    /// The length of the stream's complete lines while a torn line follows.
    cut_to: Option<u64>,
}

impl Appender {
    fn open(path: &Path, resumed: Option<&str>) -> std::io::Result<Self> {
        let mut options = std::fs::OpenOptions::new();
        options.create(true);
        let Some(stream) = resumed else {
            return Ok(Appender {
                file: options.write(true).truncate(true).open(path)?,
                cut_to: None,
            });
        };
        let complete = stream.rfind('\n').map_or(0, |i| i + 1);
        let cut_to = (complete < stream.len()).then_some(complete as u64);
        Ok(Appender { file: options.append(true).open(path)?, cut_to })
    }

    fn cut(&mut self) -> std::io::Result<()> {
        match self.cut_to.take() {
            Some(len) => self.file.set_len(len),
            None => Ok(()),
        }
    }
}

impl Write for Appender {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.cut()?;
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
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
