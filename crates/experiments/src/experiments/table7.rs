//! Table VII — impact of the community-size parameter K on Max AAC
//! (FL, GMF, MovieLens; full sharing vs Share-less).
//!
//! The paper sweeps K ∈ {10, 20, 40, 50, 100} with N = 943 users; at smaller
//! scales we keep the same *fractions* of the population so the random bound
//! rows stay comparable.

use crate::tables::{pct, Table};
use cia_data::presets::{Preset, Scale};
use cia_scenarios::{build_setup, run_quiet, DefenseKind, ModelKind, ProtocolKind, ScenarioSpec};

/// The paper's K values as fractions of N = 943.
pub const K_FRACTIONS: [f64; 6] =
    [10.0 / 943.0, 20.0 / 943.0, 40.0 / 943.0, 50.0 / 943.0, 100.0 / 943.0, 190.0 / 943.0];

/// Regenerates Table VII.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let n = build_setup(Preset::MovieLens, scale, None, seed).data.num_users();
    let ks: Vec<usize> =
        K_FRACTIONS.iter().map(|f| ((n as f64 * f).round() as usize).max(1)).collect();
    let mut headers: Vec<String> = vec!["Setting".to_string()];
    headers.extend(ks.iter().map(|k| format!("K={k}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!("Table VII — Max AAC across community sizes (FL, GMF, MovieLens, {scale} scale)"),
        &headers_ref,
    );
    for (label, defense) in
        [("Full models", DefenseKind::None), ("Share less", DefenseKind::ShareLess { tau: 0.3 })]
    {
        let mut cells = vec![label.to_string()];
        for &k in &ks {
            let mut spec =
                ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, scale);
            spec.seed = seed;
            spec.defense = defense;
            spec.k_override = Some(k);
            let r = run_quiet(&spec);
            cells.push(pct(r.attack.max_aac));
        }
        t.row(cells);
    }
    // Random-guess row for context, as in the paper.
    let mut random = vec!["Random guess".to_string()];
    for &k in &ks {
        random.push(pct(k as f64 / (n - 1) as f64));
    }
    t.row(random);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_k_sweep_has_three_rows() {
        let tables = run(Scale::Smoke, 11);
        assert_eq!(tables[0].rows.len(), 3);
        assert_eq!(tables[0].headers.len(), 7);
    }
}
