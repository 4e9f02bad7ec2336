//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment|all> [--scale smoke|small|paper] [--seed N] [--out DIR]
//! ```
//!
//! The experiments are the names in `cia_experiments::ARTIFACTS`; the usage
//! text lists them.

#![forbid(unsafe_code)]

use cia_data::presets::Scale;
use cia_experiments::ARTIFACTS;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage() {
    eprintln!("usage: repro <experiment|all> [--scale smoke|small|paper] [--seed N] [--out DIR]");
    let names: Vec<&str> = ARTIFACTS.iter().map(|&(name, _)| name).collect();
    eprintln!("experiments: {}", names.join(" "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first().cloned() else {
        usage();
        return ExitCode::FAILURE;
    };
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut out_dir: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(v) = args.get(i + 1).and_then(|s| Scale::parse(s)) else {
                    eprintln!("error: --scale expects smoke|small|paper");
                    return ExitCode::FAILURE;
                };
                scale = v;
                i += 2;
            }
            "--seed" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    eprintln!("error: --seed expects an integer");
                    return ExitCode::FAILURE;
                };
                seed = v;
                i += 2;
            }
            "--out" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --out expects a directory");
                    return ExitCode::FAILURE;
                };
                out_dir = Some(PathBuf::from(v));
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let selected: Vec<_> =
        ARTIFACTS.iter().filter(|(name, _)| which == "all" || *name == which).collect();
    if selected.is_empty() {
        eprintln!("error: unknown experiment `{which}`");
        usage();
        return ExitCode::FAILURE;
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for &(name, run) in selected {
        // cia-lint: allow(D02, CLI progress timing printed to the console; experiments emit no deterministic transcripts)
        let start = Instant::now();
        let tables = run(scale, seed);
        let elapsed = start.elapsed();
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.to_text());
            if let Some(dir) = &out_dir {
                let file = dir.join(format!("{name}_{i}_{scale}.csv"));
                if let Err(e) = std::fs::write(&file, table.to_csv()) {
                    eprintln!("error: cannot write {}: {e}", file.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("[{name} completed in {:.1}s]\n", elapsed.as_secs_f64());
    }
    ExitCode::SUCCESS
}
