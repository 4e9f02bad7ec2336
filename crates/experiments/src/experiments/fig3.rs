//! Figure 3 — privacy/utility trade-off of the Share-less strategy on GMF:
//! Max AAC vs HR@20 for every protocol and dataset.

use crate::tables::{f3, pct, Table};
use cia_data::presets::{Preset, Scale};
use cia_scenarios::{run_quiet, DefenseKind, ModelKind, ProtocolKind, ScenarioSpec};

/// Runs the trade-off sweep for one model across datasets and protocols
/// (shared by Figures 3 and 4).
pub fn tradeoff(
    model: ModelKind,
    presets: &[Preset],
    scale: Scale,
    seed: u64,
    title: String,
) -> Table {
    let mut t = Table::new(
        title,
        &["Dataset", "Protocol", "Policy", "Max AAC %", "Random bound %", "Utility"],
    );
    for &preset in presets {
        for protocol in [ProtocolKind::Fl, ProtocolKind::RandGossip, ProtocolKind::PersGossip] {
            for (label, defense) in [
                ("No defense", DefenseKind::None),
                ("Share less", DefenseKind::ShareLess { tau: 0.3 }),
            ] {
                let mut spec = ScenarioSpec::new(preset, model, protocol, scale);
                spec.seed = seed;
                spec.defense = defense;
                let r = run_quiet(&spec);
                t.row(vec![
                    preset.name().to_string(),
                    protocol.name().to_string(),
                    label.to_string(),
                    pct(r.attack.max_aac),
                    pct(r.attack.random_bound),
                    format!("{}={}", r.utility_metric, f3(r.utility)),
                ]);
            }
        }
    }
    t
}

/// Regenerates Figure 3 (as a table of the plotted series).
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    vec![tradeoff(
        ModelKind::Gmf,
        &[Preset::MovieLens, Preset::Foursquare, Preset::Gowalla],
        scale,
        seed,
        format!("Figure 3 — Attack accuracy and HR@20 trade-off, GMF ({scale} scale)"),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig3_covers_all_cells() {
        let tables = run(Scale::Smoke, 17);
        // 3 datasets x 3 protocols x 2 policies.
        assert_eq!(tables[0].rows.len(), 18);
    }
}
