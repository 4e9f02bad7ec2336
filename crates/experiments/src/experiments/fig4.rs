//! Figure 4 — privacy/utility trade-off of the Share-less strategy on PRME
//! (F1-score utility, POI datasets only).

use crate::experiments::fig3::tradeoff;
use crate::tables::Table;
use cia_data::presets::{Preset, Scale};
use cia_scenarios::ModelKind;

/// Regenerates Figure 4 (as a table of the plotted series).
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    vec![tradeoff(
        ModelKind::Prme,
        &[Preset::Foursquare, Preset::Gowalla],
        scale,
        seed,
        format!("Figure 4 — Attack accuracy and F1-score trade-off, PRME ({scale} scale)"),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig4_covers_all_cells() {
        let tables = run(Scale::Smoke, 19);
        // 2 datasets x 3 protocols x 2 policies.
        assert_eq!(tables[0].rows.len(), 12);
        assert!(tables[0].rows.iter().all(|r| r[5].starts_with("F1@20")));
    }
}
