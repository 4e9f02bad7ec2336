//! Gossip learning under attack: a lone adversary vs a colluding coalition.
//!
//! Reproduces the dynamics behind Tables IV and VI: a single gossip node sees
//! few victims (the coverage upper bound binds the attack), while colluders
//! that multicast received models approach federated-level leakage — but only
//! when the momentum smooths out gossip temporality.
//!
//! ```text
//! cargo run --release --example gossip_colluders
//! ```

use community_inference::prelude::*;

fn run(colluders: usize, beta: f32) -> AttackOutcome {
    let users = 150;
    let k = 10;
    let data = SyntheticConfig::builder()
        .users(users)
        .items(400)
        .communities(8)
        .interactions_per_user(25)
        .seed(3)
        .build()
        .generate();
    let split = LeaveOneOut::new(&data, 50, 3).expect("dataset is splittable");
    let truth = GroundTruth::from_train_sets(split.train_sets(), k);
    let spec = GmfSpec::new(data.num_items(), 8);
    let clients: Vec<_> = split
        .train_sets()
        .iter()
        .enumerate()
        .map(|(u, items)| {
            spec.build_client(UserId::from_index(u), items.clone(), SharingPolicy::Full, u as u64)
        })
        .collect();

    let truths: Vec<_> =
        (0..users).map(|u| truth.community_of(UserId::from_index(u)).to_vec()).collect();
    let owners: Vec<_> = (0..users).map(|u| Some(UserId::from_index(u))).collect();
    let members: Vec<u32> = (0..colluders).map(|i| (i * users / colluders) as u32).collect();
    let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
    let mut attack = GlCiaCoalition::new(
        CiaConfig { k, beta, eval_every: 30, seed: 0 },
        evaluator,
        users,
        &members,
        truths,
        owners,
    );
    let mut sim =
        GossipSim::new(clients, GossipConfig { rounds: 300, seed: 11, ..Default::default() });
    sim.run(&mut attack);
    attack.outcome()
}

fn main() {
    println!("Rand-Gossip, 150 users, GMF, K=10; coalition sizes vs momentum.\n");
    println!("{:<22} {:>9} {:>14} {:>13}", "setting", "Max AAC", "upper bound", "vs random");
    for (label, colluders, beta) in [
        ("single adversary", 1, 0.99f32),
        ("8 colluders", 8, 0.99),
        ("15 colluders", 15, 0.99),
        ("30 colluders", 30, 0.99),
        ("30 colluders, beta=0", 30, 0.0),
    ] {
        let out = run(colluders, beta);
        println!(
            "{:<22} {:>8.1}% {:>13.1}% {:>12.1}x",
            label,
            out.max_aac * 100.0,
            out.upper_bound.min(1.0) * 100.0,
            out.advantage_over_random()
        );
    }
    println!("\nColluders widen the adversary's view of the network (the coverage");
    println!("upper bound approaches 100%), which the ranking converts into");
    println!("accuracy — the paper's Table IV trend. Note the momentum ablation:");
    println!("on this synthetic workload the planted communities separate so");
    println!("cleanly that the latest snapshot (beta=0) already ranks near the");
    println!("ceiling, while beta=0.99 anchors on early, under-trained models;");
    println!("the paper's real-data noise is what makes its Table VI favor the");
    println!("momentum (see EXPERIMENTS.md for the discussion).");
}
