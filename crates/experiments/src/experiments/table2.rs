//! Table II — CIA on FedRecs: Max AAC and Best-10% AAC for every
//! dataset × model configuration in the federated setting.

use crate::tables::{pct, Table};
use cia_data::presets::{Preset, Scale};
use cia_scenarios::{run_quiet, ModelKind, ProtocolKind, ScenarioSpec};

/// The five dataset × model configurations of Table II (PRME is only
/// evaluated on the POI datasets, as in the paper).
pub const CONFIGS: [(Preset, ModelKind); 5] = [
    (Preset::Foursquare, ModelKind::Gmf),
    (Preset::Foursquare, ModelKind::Prme),
    (Preset::Gowalla, ModelKind::Gmf),
    (Preset::Gowalla, ModelKind::Prme),
    (Preset::MovieLens, ModelKind::Gmf),
];

/// Regenerates Table II.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        format!("Table II — CIA on FedRecs ({scale} scale); accuracy upper bound is 100%"),
        &["Dataset", "Random bound %", "Model", "Max AAC %", "Best 10% AAC %", "Utility"],
    );
    for (preset, model) in CONFIGS {
        let mut spec = ScenarioSpec::new(preset, model, ProtocolKind::Fl, scale);
        spec.seed = seed;
        let r = run_quiet(&spec);
        t.row(vec![
            preset.name().to_string(),
            pct(r.attack.random_bound),
            model.name().to_string(),
            pct(r.attack.max_aac),
            pct(r.attack.best10_aac),
            format!("{}={:.3}", r.utility_metric, r.utility),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table2_beats_random_for_gmf() {
        let tables = run(Scale::Smoke, 7);
        assert_eq!(tables[0].rows.len(), 5);
        // GMF on MovieLens (last row): Max AAC above the random bound.
        let row = &tables[0].rows[4];
        let random: f64 = row[1].parse().unwrap();
        let aac: f64 = row[3].parse().unwrap();
        assert!(aac > random, "aac {aac} !> random {random}");
    }
}
