//! Figure 5 — utility and empirical privacy under DP-SGD on MovieLens
//! (δ = 1e-6, clip = 2), for FL and Rand-Gossip.

use crate::tables::{f3, pct, Table};
use cia_data::presets::{Preset, Scale};
use cia_defenses::RdpAccountant;
use cia_scenarios::{run_quiet, DefenseKind, ModelKind, ProtocolKind, ScaleParams, ScenarioSpec};

/// The privacy budgets swept by the paper (`None` = ε = ∞).
pub const EPSILONS: [Option<f64>; 5] = [None, Some(1000.0), Some(100.0), Some(10.0), Some(1.0)];

/// Regenerates Figure 5 (as a table of the plotted series).
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let params = ScaleParams::of(scale);
    let mut t = Table::new(
        format!("Figure 5 — DP-SGD trade-off on MovieLens+GMF (delta=1e-6, clip=2, {scale} scale)"),
        &["Protocol", "epsilon", "noise multiplier", "Max AAC %", "Random bound %", "HR@20"],
    );
    for protocol in [ProtocolKind::Fl, ProtocolKind::RandGossip] {
        let rounds = match protocol {
            ProtocolKind::Fl => params.fl_rounds,
            _ => params.gl_rounds,
        };
        for eps in EPSILONS {
            let mut spec = ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, protocol, scale);
            spec.seed = seed;
            spec.defense = DefenseKind::Dp { epsilon: eps };
            let r = run_quiet(&spec);
            let sigma = match eps {
                Some(e) => RdpAccountant::calibrate_noise(e, 1e-6, rounds, 1.0),
                None => 0.0,
            };
            t.row(vec![
                protocol.name().to_string(),
                eps.map_or("inf".to_string(), |e| format!("{e}")),
                format!("{sigma:.4}"),
                pct(r.attack.max_aac),
                pct(r.attack.random_bound),
                f3(r.utility),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dp_sweep_degrades_utility_with_budget() {
        let tables = run(Scale::Smoke, 23);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 10);
        // FL: utility with eps = 1 is not above utility with eps = inf.
        let hr_inf: f64 = rows[0][5].parse().unwrap();
        let hr_eps1: f64 = rows[4][5].parse().unwrap();
        assert!(
            hr_eps1 <= hr_inf + 0.05,
            "eps=1 utility {hr_eps1} unexpectedly above eps=inf {hr_inf}"
        );
    }
}
