//! Table VIII — the entropy-based MIA as a community-inference proxy
//! (FL, GMF, MovieLens), compared against CIA.

use crate::tables::{pct, Table};
use cia_core::{CiaConfig, MiaCommunityAttack, MiaConfig};
use cia_data::presets::{Preset, Scale};
use cia_federated::{FedAvg, FedAvgConfig};
use cia_models::SharingPolicy;
use cia_scenarios::runner::gmf_scorer;
use cia_scenarios::{build_setup, run_quiet, ModelKind, ProtocolKind, ScaleParams, ScenarioSpec};

/// The entropy thresholds of Table VIII.
pub const RHOS: [f32; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Regenerates Table VIII.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let setup = build_setup(Preset::MovieLens, scale, None, seed);
    let params = ScaleParams::of(scale);
    let users = setup.data.num_users();
    let spec = gmf_scorer(setup.data.num_items(), params.dim);

    let mut t = Table::new(
        format!(
            "Table VIII — MIA as a community-inference proxy (FL, GMF, MovieLens, {scale} scale)"
        ),
        &["Attack", "rho", "MIA precision %", "Max AAC %"],
    );

    for rho in RHOS {
        let clients = spec.build_clients(setup.split.train_sets(), SharingPolicy::Full, seed);
        let mut attack = MiaCommunityAttack::new(
            MiaConfig {
                cia: CiaConfig { k: setup.k, beta: 0.99, eval_every: params.fl_eval_every, seed },
                rho,
            },
            spec.clone(),
            setup.split.train_sets().to_vec(),
            users,
            setup.truth_table(),
            setup.owner_table(),
            setup.split.train_sets().to_vec(),
        );
        let mut sim = FedAvg::new(
            clients,
            FedAvgConfig { rounds: params.fl_rounds, local_epochs: params.local_epochs, seed },
        );
        sim.run(&mut attack);
        let out = attack.outcome();
        t.row(vec![
            "MIA proxy".into(),
            format!("{rho}"),
            pct(attack.precision_at_max()),
            pct(out.max_aac),
        ]);
    }

    // CIA reference row on the identical setting.
    let mut cia_spec =
        ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, scale);
    cia_spec.seed = seed;
    let cia = run_quiet(&cia_spec);
    t.row(vec!["CIA".into(), "-".into(), "-".into(), pct(cia.attack.max_aac)]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mia_table_has_six_rows_and_cia_wins() {
        let tables = run(Scale::Smoke, 13);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 6);
        let best_mia: f64 =
            rows[..5].iter().map(|r| r[3].parse::<f64>().unwrap()).fold(0.0, f64::max);
        let cia: f64 = rows[5][3].parse().unwrap();
        assert!(cia >= best_mia, "CIA {cia} should not lose to MIA proxy {best_mia}");
    }
}
