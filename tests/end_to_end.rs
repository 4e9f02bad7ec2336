//! Cross-crate integration tests: data → models → protocols → attack →
//! metrics, exercised through the public facade.

use community_inference::prelude::*;

fn community_setup(
    users: usize,
    k: usize,
    seed: u64,
) -> (Vec<Vec<u32>>, GroundTruth, GmfSpec, Vec<cia_models::GmfClient>) {
    let data = SyntheticConfig::builder()
        .users(users)
        .items(150)
        .communities(6)
        .interactions_per_user(15)
        .seed(seed)
        .build()
        .generate();
    let split = LeaveOneOut::new(&data, 20, seed).unwrap();
    let truth = GroundTruth::from_train_sets(split.train_sets(), k);
    let spec = GmfSpec::new(150, 8);
    let clients: Vec<_> = split
        .train_sets()
        .iter()
        .enumerate()
        .map(|(u, items)| {
            spec.build_client(UserId::new(u as u32), items.clone(), SharingPolicy::Full, u as u64)
        })
        .collect();
    (split.train_sets().to_vec(), truth, spec, clients)
}

#[test]
fn fl_cia_end_to_end_beats_random() {
    let users = 36;
    let k = 5;
    let (train_sets, truth, spec, clients) = community_setup(users, k, 3);
    let evaluator = ItemSetEvaluator::new(spec, train_sets, false);
    let truths: Vec<_> =
        (0..users as u32).map(|u| truth.community_of(UserId::new(u)).to_vec()).collect();
    let owners: Vec<_> = (0..users as u32).map(|u| Some(UserId::new(u))).collect();
    let mut attack = FlCia::new(
        CiaConfig { k, beta: 0.99, eval_every: 2, seed: 0 },
        evaluator,
        users,
        truths,
        owners,
    );
    let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 16, local_epochs: 2, seed: 5 });
    sim.run(&mut attack);
    let out = attack.outcome();
    assert!(
        out.max_aac > 2.0 * out.random_bound,
        "FL CIA {} vs random {}",
        out.max_aac,
        out.random_bound
    );
}

#[test]
fn gossip_cia_stays_within_coverage_bound() {
    let users = 30;
    let k = 4;
    let (train_sets, truth, spec, clients) = community_setup(users, k, 7);
    let evaluator = ItemSetEvaluator::new(spec, train_sets, false);
    let truths: Vec<_> =
        (0..users as u32).map(|u| truth.community_of(UserId::new(u)).to_vec()).collect();
    let mut attack = GlCiaAllPlacements::new(
        CiaConfig { k, beta: 0.9, eval_every: 10, seed: 0 },
        evaluator,
        users,
        truths,
    );
    let mut sim =
        GossipSim::new(clients, GossipConfig { rounds: 40, seed: 9, ..Default::default() });
    sim.run(&mut attack);
    let out = attack.outcome();
    // Per-round AAC can never exceed that round's observation coverage.
    for p in &out.history {
        assert!(
            p.aac <= p.upper_bound + 1e-9,
            "round {}: aac {} above coverage bound {}",
            p.round,
            p.aac,
            p.upper_bound
        );
    }
}

#[test]
fn dp_defense_reduces_fl_leakage() {
    let users = 36;
    let k = 5;
    let run = |noisy: bool| {
        let (train_sets, truth, spec, clients) = community_setup(users, k, 11);
        let evaluator = ItemSetEvaluator::new(spec, train_sets, false);
        let truths: Vec<_> =
            (0..users as u32).map(|u| truth.community_of(UserId::new(u)).to_vec()).collect();
        let owners: Vec<_> = (0..users as u32).map(|u| Some(UserId::new(u))).collect();
        let mut attack = FlCia::new(
            CiaConfig { k, beta: 0.99, eval_every: 2, seed: 0 },
            evaluator,
            users,
            truths,
            owners,
        );
        let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 12, local_epochs: 2, seed: 5 });
        if noisy {
            sim.set_update_transform(Box::new(DpMechanism::new(DpConfig {
                clip: 2.0,
                noise_multiplier: 2.0,
            })));
        }
        sim.run(&mut attack);
        attack.outcome().max_aac
    };
    let clean = run(false);
    let noisy = run(true);
    assert!(noisy < clean, "DP should reduce leakage: {clean} -> {noisy}");
}

#[test]
fn share_less_hides_user_embeddings_but_attack_still_runs() {
    let users = 24;
    let k = 4;
    let data = SyntheticConfig::builder()
        .users(users)
        .items(120)
        .communities(4)
        .interactions_per_user(12)
        .seed(13)
        .build()
        .generate();
    let split = LeaveOneOut::new(&data, 20, 13).unwrap();
    let truth = GroundTruth::from_train_sets(split.train_sets(), k);
    let spec = GmfSpec::new(120, 8);
    let clients: Vec<_> = split
        .train_sets()
        .iter()
        .enumerate()
        .map(|(u, items)| {
            spec.build_client(
                UserId::new(u as u32),
                items.clone(),
                SharingPolicy::ShareLess { tau: 0.3 },
                u as u64,
            )
        })
        .collect();
    let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), true);
    let truths: Vec<_> =
        (0..users as u32).map(|u| truth.community_of(UserId::new(u)).to_vec()).collect();
    let owners: Vec<_> = (0..users as u32).map(|u| Some(UserId::new(u))).collect();
    let mut attack = FlCia::new(
        CiaConfig { k, beta: 0.99, eval_every: 2, seed: 0 },
        evaluator,
        users,
        truths,
        owners,
    );
    let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 8, local_epochs: 2, seed: 5 });
    sim.run(&mut attack);
    let out = attack.outcome();
    assert!(out.max_aac.is_finite());
    assert!(!out.history.is_empty());
}

#[test]
fn accountant_and_mechanism_compose() {
    let dp = DpMechanism::with_target_epsilon(10.0, 1e-6, 20, 1.0, 2.0);
    let eps = dp.epsilon(20, 1.0, 1e-6);
    assert!(eps <= 10.0 && eps > 5.0, "calibrated eps {eps}");
    // The accountant is consistent with the mechanism's own report.
    let direct = RdpAccountant::new(dp.config().noise_multiplier as f64, 20, 1.0).epsilon(1e-6);
    assert!((direct - eps).abs() < 1e-9);
}

#[test]
fn prme_pipeline_runs_in_gossip() {
    let data = SyntheticConfig::builder()
        .users(20)
        .items(100)
        .communities(4)
        .interactions_per_user(12)
        .sequences(true)
        .seed(17)
        .build()
        .generate();
    let split = LeaveOneOut::with_holdout(&data, 3, 20, 17).unwrap();
    let truth = GroundTruth::from_train_sets(split.train_sets(), 3);
    let spec = PrmeSpec::new(100, 8);
    let clients: Vec<_> = split
        .train_sets()
        .iter()
        .zip(split.train_sequences())
        .enumerate()
        .map(|(u, (items, seq))| {
            spec.build_client(
                UserId::new(u as u32),
                items.clone(),
                seq.clone(),
                SharingPolicy::Full,
                u as u64,
            )
        })
        .collect();
    let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
    let truths: Vec<_> = (0..20u32).map(|u| truth.community_of(UserId::new(u)).to_vec()).collect();
    let mut attack = GlCiaAllPlacements::new(
        CiaConfig { k: 3, beta: 0.9, eval_every: 10, seed: 0 },
        evaluator,
        20,
        truths,
    );
    let mut sim =
        GossipSim::new(clients, GossipConfig { rounds: 30, seed: 19, ..Default::default() });
    sim.run(&mut attack);
    assert!(attack.outcome().max_aac.is_finite());
}
