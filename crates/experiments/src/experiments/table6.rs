//! Table VI — impact of the momentum on the colluding setting
//! (β ∈ {0, 0.5, 0.99}).
//!
//! Note (see `EXPERIMENTS.md`): with cleanly-separated synthetic communities
//! a single model snapshot already ranks near the coverage ceiling, so the
//! paper's large momentum gain does not reproduce; a moderate β shows a mild
//! gain while β = 0.99 over-anchors on early, under-trained snapshots.

use crate::tables::{pct, Table};
use cia_data::presets::{Preset, Scale};
use cia_scenarios::{build_setup, run_quiet, ModelKind, ProtocolKind, ScenarioSpec};

/// Regenerates Table VI.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let n = build_setup(Preset::MovieLens, scale, None, seed).data.num_users();
    let mut t = Table::new(
        format!("Table VI — Max AAC with/without momentum, colluding GL (GMF, MovieLens, {scale} scale)"),
        &["Setting", "5% colluders", "10% colluders", "20% colluders"],
    );
    for beta in [0.0f32, 0.5, 0.99] {
        let mut cells = vec![format!("beta = {beta}")];
        for frac in [0.05f64, 0.10, 0.20] {
            let mut spec = ScenarioSpec::new(
                Preset::MovieLens,
                ModelKind::Gmf,
                ProtocolKind::RandGossip,
                scale,
            );
            spec.seed = seed;
            spec.beta = beta;
            spec.dynamics.sybils = ((n as f64 * frac).round() as usize).max(2);
            let r = run_quiet(&spec);
            cells.push(pct(r.attack.max_aac));
        }
        t.row(cells);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_momentum_sweep_completes() {
        let tables = run(Scale::Smoke, 9);
        assert_eq!(tables[0].rows.len(), 3);
        assert!(tables[0].rows[0][0].contains("beta = 0"));
        assert!(tables[0].rows[2][0].contains("0.99"));
    }
}
