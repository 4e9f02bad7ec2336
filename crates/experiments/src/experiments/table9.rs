//! Table IX — temporal complexity of CIA vs the MIA/AIA proxies:
//! the analytic cost model instantiated with unit costs *measured on this
//! machine*.

use crate::tables::Table;
use cia_core::complexity::CostModel;
use cia_core::{AIA_M_NONMEMBER, AIA_N_MEMBER};
use cia_data::presets::{Preset, Scale};
use cia_models::{GmfSpec, Mlp, MlpHyper, MlpSpec, RelevanceScorer};
use cia_scenarios::{build_setup, ScaleParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Regenerates Table IX with measured unit costs.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let setup = build_setup(Preset::MovieLens, scale, None, seed);
    let params = ScaleParams::of(scale);
    let spec = GmfSpec::new(setup.data.num_items(), params.dim);
    let mut rng = StdRng::seed_from_u64(seed);
    let agg = spec.init_agg(&mut rng);
    let target = setup.split.train_sets()[0].clone();

    // T_M: training one fictive user embedding against public parameters.
    // cia-lint: allow(D02, Table 9 *is* a wall-clock measurement of attack cost; timing is the payload here)
    let start = Instant::now();
    let emb = spec
        .train_adversary_embedding(&agg, &target, None, &mut rng)
        .expect("GMF has user factors");
    let t_model = start.elapsed().as_secs_f64();

    // I_M: one relevance inference over the target set.
    // cia-lint: allow(D02, Table 9 *is* a wall-clock measurement of attack cost; timing is the payload here)
    let start = Instant::now();
    let iters = 100;
    for _ in 0..iters {
        std::hint::black_box(spec.mean_relevance(Some(&emb), &agg, &target));
    }
    let i_model = start.elapsed().as_secs_f64() / iters as f64;

    // T_C / I_C: the AIA gradient classifier on agg-sized inputs.
    let clf_spec = MlpSpec::new(vec![spec.agg_len(), 32, 16, 1]);
    let mut clf = Mlp::new(clf_spec.clone(), MlpHyper::default(), seed);
    let sample = vec![0.5f32; spec.agg_len()];
    // cia-lint: allow(D02, Table 9 *is* a wall-clock measurement of attack cost; timing is the payload here)
    let start = Instant::now();
    for _ in 0..10 {
        clf.train_binary(&[&sample], &[1.0]);
    }
    let t_classifier = start.elapsed().as_secs_f64() / 10.0 * 40.0; // ~40 samples x epochs
                                                                    // cia-lint: allow(D02, Table 9 *is* a wall-clock measurement of attack cost; timing is the payload here)
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(clf.prob_binary(&sample));
    }
    let i_classifier = start.elapsed().as_secs_f64() / iters as f64;

    let d_max = setup.split.train_sets().iter().map(Vec::len).max().unwrap_or(0) as f64;
    let model = CostModel {
        t_model,
        i_model,
        t_classifier,
        i_classifier,
        users: setup.data.num_users() as f64,
        target_size: target.len() as f64,
        d_max,
        n_member: AIA_N_MEMBER as f64,
        m_nonmember: AIA_M_NONMEMBER as f64,
    };

    let mut units = Table::new(
        format!("Table IX (a) — measured unit costs ({scale} scale, this machine)"),
        &["Unit", "Seconds"],
    );
    units.row(vec!["T_M (train fictive embedding)".into(), format!("{t_model:.6}")]);
    units.row(vec!["I_M (one relevance inference)".into(), format!("{i_model:.9}")]);
    units.row(vec!["T_C (train AIA classifier)".into(), format!("{t_classifier:.6}")]);
    units.row(vec!["I_C (one classifier inference)".into(), format!("{i_classifier:.9}")]);

    let mut totals = Table::new(
        "Table IX (b) — composed attack costs (formulas of the paper)",
        &["Attack", "Temporal complexity", "Estimated seconds"],
    );
    totals.row(vec![
        "CIA".into(),
        "O(T_M) + O(I_M * |U| * |V_target|)".into(),
        format!("{:.4}", model.cia()),
    ]);
    totals.row(vec![
        "MIA".into(),
        "O(T_M) + O(I_M * |U| * D_max)".into(),
        format!("{:.4}", model.mia()),
    ]);
    totals.row(vec![
        "AIA".into(),
        "O(T_M * (N+M)) + O(T_C) + O(I_C * |U|)".into(),
        format!("{:.4}", model.aia()),
    ]);
    vec![units, totals]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_complexity_is_measured_and_ordered() {
        let tables = run(Scale::Smoke, 3);
        assert_eq!(tables.len(), 2);
        let secs: Vec<f64> = tables[1].rows.iter().map(|r| r[2].parse::<f64>().unwrap()).collect();
        // CIA <= MIA always (|V_target| <= D_max by construction).
        assert!(secs[0] <= secs[1] + 1e-9, "cia {} > mia {}", secs[0], secs[1]);
        assert!(secs.iter().all(|s| *s >= 0.0));
    }
}
