//! Table goldens: every artifact except `table9` (a wall-clock
//! measurement), run at smoke scale with seed 42, must print its committed
//! tables byte for byte. A golden holds each table's `to_text()` followed by
//! a newline — exactly what `repro <name> --scale smoke --seed 42` prints
//! before its `[... completed in ...]` line.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! for f in crates/experiments/tests/golden/*-smoke.txt; do
//!   cargo run --release -q -p cia-experiments --bin repro -- "$(basename "$f" -smoke.txt)" \
//!     --scale smoke --seed 42 | sed '/^\[.* completed in .*\]$/,$d' > "$f"
//! done
//! ```

use cia_data::presets::Scale;
use cia_experiments::ARTIFACTS;
use std::path::Path;

/// The one artifact without a golden: its cells are wall-clock timings.
const UNPINNED: &str = "table9";

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

#[test]
fn every_artifact_but_table9_matches_its_golden() {
    let mut drifted = Vec::new();
    for &(name, run) in ARTIFACTS.iter().filter(|&&(name, _)| name != UNPINNED) {
        let path = golden_dir().join(format!("{name}-smoke.txt"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", path.display()));
        let actual: String = run(Scale::Smoke, 42).iter().map(|t| t.to_text() + "\n").collect();
        if actual != golden {
            let line = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
            let at = line.map_or("its length".to_string(), |i| format!("line {}", i + 1));
            drifted.push(format!("{name} ({at})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "drifted from the golden tables (regenerate if intentional — see module docs): {}",
        drifted.join(", ")
    );
}

#[test]
fn every_golden_names_a_registered_artifact() {
    for entry in std::fs::read_dir(golden_dir()).expect("golden directory") {
        let file = entry.expect("directory entry").file_name();
        let file = file.to_string_lossy();
        let name = file.strip_suffix("-smoke.txt").unwrap_or(&file);
        assert!(
            name != UNPINNED && ARTIFACTS.iter().any(|&(n, _)| n == name),
            "stray golden `{file}`"
        );
    }
}
