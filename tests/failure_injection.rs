//! Failure-injection and degenerate-input tests: the simulation must stay
//! finite, deterministic and non-panicking under hostile conditions
//! (destroyed models, minimal populations, extreme configurations).

use community_inference::prelude::*;
use rand::rngs::StdRng;

/// A transform that replaces every update with worst-case values.
struct Saboteur {
    value: f32,
}

impl cia_models::UpdateTransform for Saboteur {
    fn transform(&self, update: &mut [f32], _rng: &mut StdRng) {
        for v in update.iter_mut() {
            *v = self.value;
        }
    }
}

fn tiny_clients(users: usize, seed: u64) -> (GmfSpec, Vec<cia_models::GmfClient>, Vec<Vec<u32>>) {
    let data = SyntheticConfig::builder()
        .users(users)
        .items(60)
        .communities(3)
        .interactions_per_user(8)
        .seed(seed)
        .build()
        .generate();
    let split = LeaveOneOut::new(&data, 10, seed).unwrap();
    let spec = GmfSpec::new(60, 4, GmfHyper::default());
    let clients: Vec<_> = split
        .train_sets()
        .iter()
        .enumerate()
        .map(|(u, items)| {
            spec.build_client(UserId::new(u as u32), items.clone(), SharingPolicy::Full, u as u64)
        })
        .collect();
    (spec, clients, split.train_sets().to_vec())
}

fn attack_for(
    spec: &GmfSpec,
    train_sets: &[Vec<u32>],
    users: usize,
    k: usize,
) -> FlCia<ItemSetEvaluator<GmfSpec>> {
    let truth = GroundTruth::from_train_sets(train_sets, k);
    let evaluator = ItemSetEvaluator::new(spec.clone(), train_sets.to_vec(), false);
    let truths: Vec<_> =
        (0..users as u32).map(|u| truth.community_of(UserId::new(u)).to_vec()).collect();
    let owners: Vec<_> = (0..users as u32).map(|u| Some(UserId::new(u))).collect();
    FlCia::new(CiaConfig { k, beta: 0.9, eval_every: 1, seed: 0 }, evaluator, users, truths, owners)
}

#[test]
fn huge_constant_updates_do_not_poison_the_attack() {
    let (spec, clients, train_sets) = tiny_clients(10, 1);
    let mut attack = attack_for(&spec, &train_sets, 10, 2);
    let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 4, ..Default::default() });
    sim.set_update_transform(Box::new(Saboteur { value: 1e30 }));
    sim.run(&mut attack);
    let out = attack.outcome();
    // Accuracy may be garbage but everything stays finite and bounded.
    assert!(out.max_aac.is_finite());
    assert!((0.0..=1.0).contains(&out.max_aac));
}

#[test]
fn nan_updates_do_not_panic_the_ranking() {
    let (spec, clients, train_sets) = tiny_clients(10, 2);
    let mut attack = attack_for(&spec, &train_sets, 10, 2);
    let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 3, ..Default::default() });
    sim.set_update_transform(Box::new(Saboteur { value: f32::NAN }));
    sim.run(&mut attack);
    // NaN-safe comparator: ranking completes; outcome stays in range.
    let out = attack.outcome();
    assert!(out.max_aac.is_finite() && (0.0..=1.0).contains(&out.max_aac));
}

#[test]
fn minimal_population_gossip_survives() {
    // The smallest legal gossip network: P + 1 = 4 nodes.
    let (_, clients, _) = tiny_clients(4, 3);
    let mut sim =
        GossipSim::new(clients, GossipConfig { rounds: 10, seed: 4, ..Default::default() });
    let mut deliveries = 0usize;
    struct Count<'a>(&'a mut usize);
    impl cia_gossip::GossipObserver for Count<'_> {
        fn on_delivery(
            &mut self,
            _round: u64,
            _receiver: UserId,
            _model: &cia_models::SharedModel,
        ) {
            *self.0 += 1;
        }
    }
    sim.run(&mut Count(&mut deliveries));
    assert_eq!(deliveries, 40);
}

#[test]
fn single_member_communities_work() {
    let (spec, clients, train_sets) = tiny_clients(8, 5);
    let mut attack = attack_for(&spec, &train_sets, 8, 1);
    let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 3, ..Default::default() });
    sim.run(&mut attack);
    let out = attack.outcome();
    assert_eq!(out.k, 1);
    assert!((0.0..=1.0).contains(&out.max_aac));
}

#[test]
fn zero_noise_dp_equals_pure_clipping_behavior() {
    // eps = inf (noiseless clipping) must keep training stable and the
    // attack effective.
    let (spec, clients, train_sets) = tiny_clients(12, 7);
    let mut attack = attack_for(&spec, &train_sets, 12, 2);
    let mut sim =
        FedAvg::new(clients, FedAvgConfig { rounds: 8, local_epochs: 2, ..Default::default() });
    sim.set_update_transform(Box::new(DpMechanism::new(DpConfig {
        clip: 100.0, // effectively no clipping
        noise_multiplier: 0.0,
    })));
    sim.run(&mut attack);
    let out = attack.outcome();
    assert!(out.max_aac >= out.random_bound, "{} < {}", out.max_aac, out.random_bound);
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let (spec, clients, train_sets) = tiny_clients(12, 9);
        let mut attack = attack_for(&spec, &train_sets, 12, 2);
        let mut sim =
            FedAvg::new(clients, FedAvgConfig { rounds: 5, seed: 77, ..Default::default() });
        sim.run(&mut attack);
        attack.outcome()
    };
    let a = run();
    let b = run();
    assert_eq!(a.max_aac, b.max_aac);
    assert_eq!(a.history, b.history);
}

#[test]
fn wake_fraction_extremes_are_stable() {
    let (_, clients, _) = tiny_clients(10, 11);
    // Nearly-zero participation through the dynamics layer: most rounds are
    // silent, nothing panics.
    let spec = cia_scenarios::DynamicsSpec { participation: 0.05, ..Default::default() };
    let mut dynamics = cia_scenarios::ParticipantDynamics::new(&spec, 10, 2);
    let mut sim =
        GossipSim::new(clients, GossipConfig { rounds: 20, seed: 2, ..Default::default() });
    struct Awake(Vec<usize>);
    impl cia_gossip::GossipObserver for Awake {
        fn on_round_end(&mut self, stats: &cia_gossip::GossipRoundStats) {
            self.0.push(stats.awake);
        }
    }
    let mut awake = Awake(Vec::new());
    sim.run(&mut cia_scenarios::GlDynamics { inner: &mut awake, dynamics: &mut dynamics });
    assert_eq!(sim.round(), 20);
    assert!(awake.0.contains(&0), "no silent round: {:?}", awake.0);
    assert!(awake.0.iter().sum::<usize>() < 20 * 10 / 4, "most nodes woke: {:?}", awake.0);
}
