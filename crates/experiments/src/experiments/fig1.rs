//! Figure 1 / §II — the motivating example: identifying "health vulnerable"
//! users in a Foursquare-like dataset from models alone.
//!
//! A small community of users with ≥68% health-categorized visits (against a
//! 6.7% base rate) is planted; the server-side adversary crafts `V_target`
//! from the *public* category catalog (all Health-and-Medicine items) and
//! runs CIA with K = 3.

use crate::tables::{pct, Table};
use cia_core::{CiaConfig, FlCia, ItemSetEvaluator};
use cia_data::presets::Scale;
use cia_data::{
    GroundTruth, LeaveOneOut, SyntheticConfig, UserId, HEALTH_CATEGORY, HEALTH_COMMUNITY_SIZE,
};
use cia_federated::{FedAvg, FedAvgConfig};
use cia_models::{GmfSpec, SharingPolicy};
use cia_scenarios::ScaleParams;

/// Regenerates the Figure 1 experiment.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let params = ScaleParams::of(scale);
    let (users, items, ipu) = match scale {
        Scale::Smoke => (48, 240, 24),
        Scale::Small => (220, 600, 40),
        Scale::Paper => (1083, 4000, 185),
    };
    let k = HEALTH_COMMUNITY_SIZE;
    let data = SyntheticConfig::builder()
        .name("Foursquare-like with health community")
        .users(users)
        .items(items)
        .communities((users / 20).clamp(4, 48))
        .interactions_per_user(ipu)
        .categories(true)
        .seed(seed)
        .build()
        .generate();
    let categories = data.categories().expect("categories attached").clone();
    let split = LeaveOneOut::new(&data, params.eval_negatives, seed ^ 0x5EED).unwrap();

    // The adversary's target: every health-categorized item, straight from
    // the public catalog.
    let health_items = categories.items_in(HEALTH_CATEGORY);
    let truth = GroundTruth::for_target(&health_items, split.train_sets(), k);

    let spec = GmfSpec::new(data.num_items(), params.dim);
    let clients = spec.build_clients(split.train_sets(), SharingPolicy::Full, seed);

    let evaluator = ItemSetEvaluator::new(spec, vec![health_items.clone()], false);
    let mut attack = FlCia::new(
        CiaConfig { k, beta: 0.99, eval_every: params.fl_eval_every, seed },
        evaluator,
        users,
        vec![truth.clone()],
        vec![None],
    );
    let mut sim = FedAvg::new(
        clients,
        FedAvgConfig { rounds: params.fl_rounds, local_epochs: params.local_epochs, seed },
    );
    sim.run(&mut attack);

    let predicted = attack.predict(0);
    let outcome = attack.outcome();

    // Health-visit fractions: the inferred community vs everyone.
    let frac_of = |u: UserId| categories.fraction_in(data.user(u).items(), HEALTH_CATEGORY);
    let community_frac: f64 =
        predicted.iter().map(|&u| frac_of(u)).sum::<f64>() / predicted.len().max(1) as f64;
    let overall_frac: f64 =
        (0..users).map(|u| frac_of(UserId::from_index(u))).sum::<f64>() / users as f64;

    let mut t = Table::new(
        format!("Figure 1 — CIA targeting health-vulnerable users ({scale} scale)"),
        &["Quantity", "Value"],
    );
    t.row(vec!["Health items in catalog".into(), health_items.len().to_string()]);
    t.row(vec![
        "Inferred community".into(),
        predicted.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join(", "),
    ]);
    t.row(vec![
        "True community (top-3 Jaccard)".into(),
        truth.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join(", "),
    ]);
    t.row(vec!["Attack accuracy %".into(), pct(outcome.max_aac)]);
    t.row(vec!["Community health-visit share %".into(), pct(community_frac)]);
    t.row(vec!["Population health-visit share %".into(), pct(overall_frac)]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_health_community_is_found() {
        let tables = run(Scale::Smoke, 31);
        let rows = &tables[0].rows;
        let acc: f64 = rows[3][1].parse().unwrap();
        let community: f64 = rows[4][1].parse().unwrap();
        let overall: f64 = rows[5][1].parse().unwrap();
        // The inferred community is dominated by health visitors while the
        // population base rate stays low — the paper's 68% vs 6.7% contrast.
        assert!(acc >= 2.0 / 3.0 * 100.0, "accuracy {acc}");
        assert!(community > 3.0 * overall, "community {community} vs overall {overall}");
    }
}
