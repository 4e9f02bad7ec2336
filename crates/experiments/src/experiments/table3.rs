//! Table III — CIA on GossipRecs: Rand-Gossip and Pers-Gossip across all
//! dataset × model configurations, every adversary placement evaluated.

use crate::experiments::table2::CONFIGS;
use crate::tables::{pct, Table};
use cia_data::presets::Scale;
use cia_scenarios::{run_quiet, ProtocolKind, ScenarioSpec};

/// Regenerates Table III.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        format!("Table III — CIA on GossipRecs ({scale} scale)"),
        &[
            "Gossip protocol",
            "Dataset",
            "Random bound %",
            "Model",
            "Max AAC %",
            "Best 10% AAC %",
            "Upper bound %",
        ],
    );
    for protocol in [ProtocolKind::RandGossip, ProtocolKind::PersGossip] {
        for (preset, model) in CONFIGS {
            let mut spec = ScenarioSpec::new(preset, model, protocol, scale);
            spec.seed = seed;
            let r = run_quiet(&spec);
            t.row(vec![
                protocol.name().to_string(),
                preset.name().to_string(),
                pct(r.attack.random_bound),
                model.name().to_string(),
                pct(r.attack.max_aac),
                pct(r.attack.best10_aac),
                pct(r.attack.upper_bound.min(1.0)),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table3_has_ten_rows() {
        let tables = run(Scale::Smoke, 3);
        assert_eq!(tables[0].rows.len(), 10);
        for row in &tables[0].rows {
            let aac: f64 = row[4].parse().unwrap();
            assert!((0.0..=100.0).contains(&aac));
        }
    }
}
