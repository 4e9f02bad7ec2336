//! Table IV — effect of colluders in GL (Rand-Gossip, GMF, MovieLens).

use crate::tables::{pct, Table};
use cia_data::presets::{Preset, Scale};
use cia_scenarios::{build_setup, run_quiet, DefenseKind, ModelKind, ProtocolKind, ScenarioSpec};

/// The colluder fractions evaluated by the paper (0 = single adversary).
pub const COLLUDER_FRACTIONS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Runs the colluder sweep with a given defense (shared by Tables IV and V)
/// and momentum coefficient (shared with Table VI). The colluders are a
/// `dynamics.sybils` coalition on evenly spaced ids; 0 runs the single
/// adversary at every placement.
pub fn sweep(scale: Scale, seed: u64, defense: DefenseKind, beta: f32, title: String) -> Table {
    let n = build_setup(Preset::MovieLens, scale, None, seed).data.num_users();
    let mut t = Table::new(
        title,
        &["Setting", "Colluders", "Max AAC %", "Best 10% AAC %", "Upper bound %"],
    );
    for frac in COLLUDER_FRACTIONS {
        let colluders = if frac == 0.0 { 0 } else { ((n as f64 * frac).round() as usize).max(2) };
        let mut spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::RandGossip, scale);
        spec.seed = seed;
        spec.defense = defense;
        spec.beta = beta;
        spec.dynamics.sybils = colluders;
        let r = run_quiet(&spec);
        let setting = if frac == 0.0 {
            "Single adversary".to_string()
        } else {
            format!("{:.0}% colluders", frac * 100.0)
        };
        t.row(vec![
            setting,
            colluders.max(1).to_string(),
            pct(r.attack.max_aac),
            pct(r.attack.best10_aac),
            pct(r.attack.upper_bound.min(1.0)),
        ]);
    }
    t
}

/// Regenerates Table IV.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    vec![sweep(
        scale,
        seed,
        DefenseKind::None,
        0.99,
        format!("Table IV — Collusion in GL (Rand-Gossip, GMF, MovieLens, {scale} scale)"),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_colluders_expand_coverage() {
        let tables = run(Scale::Smoke, 5);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 4);
        let bound_single: f64 = rows[0][4].parse().unwrap();
        let bound_20pct: f64 = rows[3][4].parse().unwrap();
        assert!(
            bound_20pct >= bound_single,
            "more colluders should not shrink coverage: {bound_single} -> {bound_20pct}"
        );
    }
}
