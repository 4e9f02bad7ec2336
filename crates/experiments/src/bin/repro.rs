//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment|all> [--scale smoke|small|paper] [--seed N] [--out DIR]
//! ```
//!
//! Experiments: `table1 table2 table3 table4 table5 table6 table7 table8
//! table9 fig1 fig3 fig4 fig5 aia mnist ablation`.

#![forbid(unsafe_code)]

use cia_data::presets::Scale;
use cia_experiments::experiments as exp;
use cia_experiments::tables::Table;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const EXPERIMENTS: [&str; 16] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
    "fig1", "fig3", "fig4", "fig5", "aia", "mnist", "ablation",
];

fn dispatch(name: &str, scale: Scale, seed: u64) -> Option<Vec<Table>> {
    let tables = match name {
        "table1" => exp::table1::run(scale, seed),
        "table2" => exp::table2::run(scale, seed),
        "table3" => exp::table3::run(scale, seed),
        "table4" => exp::table4::run(scale, seed),
        "table5" => exp::table5::run(scale, seed),
        "table6" => exp::table6::run(scale, seed),
        "table7" => exp::table7::run(scale, seed),
        "table8" => exp::table8::run(scale, seed),
        "table9" => exp::table9::run(scale, seed),
        "fig1" => exp::fig1::run(scale, seed),
        "fig3" => exp::fig3::run(scale, seed),
        "fig4" => exp::fig4::run(scale, seed),
        "fig5" => exp::fig5::run(scale, seed),
        "aia" => exp::aia::run(scale, seed),
        "mnist" => exp::mnist::run(scale, seed),
        "ablation" => exp::ablation::run(scale, seed),
        _ => return None,
    };
    Some(tables)
}

fn usage() {
    eprintln!("usage: repro <experiment|all> [--scale smoke|small|paper] [--seed N] [--out DIR]");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
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

    let names: Vec<&str> = if which == "all" {
        EXPERIMENTS.to_vec()
    } else if EXPERIMENTS.contains(&which.as_str()) {
        vec![which.as_str()]
    } else {
        eprintln!("error: unknown experiment `{which}`");
        usage();
        return ExitCode::FAILURE;
    };

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for name in names {
        // cia-lint: allow(D02, CLI progress timing printed to the console; experiments emit no deterministic transcripts)
        let start = Instant::now();
        let tables = dispatch(name, scale, seed).expect("validated above");
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
