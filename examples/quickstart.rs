//! Quickstart: train a federated GMF recommender on a community-structured
//! dataset and watch the server-side Community Inference Attack recover the
//! communities round by round.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use community_inference::prelude::*;

fn main() {
    let users = 120;
    let k = 10;

    println!("Generating a community-structured dataset ({users} users, 8 communities)...");
    let data = SyntheticConfig::builder()
        .users(users)
        .items(400)
        .communities(8)
        .interactions_per_user(25)
        .seed(1)
        .build()
        .generate();
    let split = LeaveOneOut::new(&data, 50, 1).expect("dataset is splittable");
    let truth = GroundTruth::from_train_sets(split.train_sets(), k);

    println!("Building {users} federated GMF clients...");
    let spec = GmfSpec::new(data.num_items(), 8);
    let clients: Vec<_> = split
        .train_sets()
        .iter()
        .enumerate()
        .map(|(u, items)| {
            spec.build_client(UserId::from_index(u), items.clone(), SharingPolicy::Full, u as u64)
        })
        .collect();

    // The adversary: the federated server itself, targeting every user's
    // taste profile at once (the paper's evaluation protocol).
    let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
    let truths: Vec<_> =
        (0..users).map(|u| truth.community_of(UserId::from_index(u)).to_vec()).collect();
    let owners: Vec<_> = (0..users).map(|u| Some(UserId::from_index(u))).collect();
    let mut attack = FlCia::new(
        CiaConfig { k, beta: 0.99, eval_every: 2, seed: 0 },
        evaluator,
        users,
        truths,
        owners,
    );

    println!("Running 20 FedAvg rounds with the attack observing...\n");
    let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 20, local_epochs: 2, seed: 7 });
    sim.run(&mut attack);

    let outcome = attack.outcome();
    println!("round | average attack accuracy");
    for p in &outcome.history {
        let bar = "#".repeat((p.aac * 40.0) as usize);
        println!("{:>5} | {:>5.1}% {bar}", p.round, p.aac * 100.0);
    }
    println!();
    println!("Max AAC        : {:.1}% (round {})", outcome.max_aac * 100.0, outcome.max_round);
    println!("Best 10% AAC   : {:.1}%", outcome.best10_aac * 100.0);
    println!("Random guessing: {:.1}%", outcome.random_bound * 100.0);
    println!("The attack is {:.1}x better than random guessing.", outcome.advantage_over_random());
}
