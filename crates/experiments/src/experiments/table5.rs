//! Table V — collusion in GL under the Share-less strategy.

use crate::experiments::table4::sweep;
use crate::tables::Table;
use cia_data::presets::Scale;
use cia_scenarios::DefenseKind;

/// Regenerates Table V.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    vec![sweep(
        scale,
        seed,
        DefenseKind::ShareLess { tau: 0.3 },
        0.99,
        format!("Table V — Collusion in GL with Share-less (GMF, MovieLens, {scale} scale)"),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_share_less_colluder_sweep_completes() {
        let tables = run(Scale::Smoke, 5);
        assert_eq!(tables[0].rows.len(), 4);
        for row in &tables[0].rows {
            let aac: f64 = row[2].parse().unwrap();
            assert!((0.0..=100.0).contains(&aac));
        }
    }
}
