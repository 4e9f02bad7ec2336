//! Differential test of the gossip send path. GMF and PRME clients lend
//! their aggregate to each push and take it back at the merge, once the
//! push's receiver has read it, mixing in place; wrapped in [`Copying`],
//! which forwards every hook gossip drives except those two, the same
//! clients run the trait's copying defaults instead. Both must give the same
//! deliveries (owner, receiver, embedding and aggregate bits) and the same
//! node state bits after every round, over {Rand, Pers} × asleep {none, 40%}
//! × {no DP, DP clip-only, DP noisy} × {Full, Share-less} × {12, 40} nodes ×
//! `CIA_THREADS` {1, 2, 3}. Every case asserts that some round's send graph
//! held a cycle of three nodes or more, so the merge order waits along
//! receiver chains and breaks multi-node cycles with a copy. Sleepers are cleared
//! from the wake mask as a pure function of `(round, node)`, and the runs
//! are long enough that Exp(0.1) view refreshes fire.
//!
//! No golden transcript runs PRME gossip, so this is PRME's only guard on
//! the lend path. The test is the only one in this binary, so setting
//! `CIA_THREADS` here races with nothing.

use cia_data::UserId;
use cia_defenses::{DpConfig, DpMechanism};
use cia_gossip::{GossipConfig, GossipObserver, GossipProtocol, GossipSim, LivenessEvent};
use cia_models::{
    FactorClient, FactorModel, GmfSpec, Participant, PrmeSpec, SharedModel, SharingPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ITEMS: u32 = 30;
const ROUNDS: u64 = 20;

/// Runs the wrapped participant on the trait's copying defaults for
/// `lend_snapshot` / `merge_agg`; every other hook gossip drives forwards.
struct Copying<P>(P);

impl<P: Participant> Participant for Copying<P> {
    fn user(&self) -> UserId {
        self.0.user()
    }
    fn agg_len(&self) -> usize {
        self.0.agg_len()
    }
    fn agg(&self) -> &[f32] {
        self.0.agg()
    }
    fn draw_agg(&mut self) {
        self.0.draw_agg();
    }
    fn owner_emb(&self) -> Option<&[f32]> {
        self.0.owner_emb()
    }
    fn absorb_agg(&mut self, agg: &[f32]) {
        self.0.absorb_agg(agg);
    }
    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        self.0.train_local(rng)
    }
    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        self.0.snapshot_into(round, slot);
    }
    fn accumulate_update(&self, reference: &[f32], weight: f32, out: &mut [f32]) {
        self.0.accumulate_update(reference, weight, out);
    }
    fn num_examples(&self) -> usize {
        self.0.num_examples()
    }
    fn evaluate_model(&self, model: &SharedModel) -> f32 {
        self.0.evaluate_model(model)
    }
}

/// What a round leaves a node holding: its user embedding and aggregate.
trait NodeState {
    fn state(&self) -> Vec<f32>;
}

impl<S: FactorModel> NodeState for FactorClient<S> {
    fn state(&self) -> Vec<f32> {
        [self.user_emb(), self.agg()].concat()
    }
}

impl<P: NodeState> NodeState for Copying<P> {
    fn state(&self) -> Vec<f32> {
        self.0.state()
    }
}

fn copying<P>(nodes: Vec<P>) -> Vec<Copying<P>> {
    nodes.into_iter().map(Copying).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One delivery: (owner, receiver, embedding bits, aggregate bits).
type Delivery = (u32, u32, Option<Vec<u32>>, Vec<u32>);

/// One round's deliveries; it clears a `sleep` share of the wake mask, as a
/// coin flip per `(round, node)`, and counts sleepers and due refreshes.
struct Tape {
    sleep: f64,
    deliveries: Vec<Delivery>,
    slept: usize,
    refreshes: usize,
}

impl GossipObserver for Tape {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        match event {
            LivenessEvent::ActingSet { round, mask } => {
                for (u, m) in (0u64..).zip(mask.iter_mut()) {
                    let mut coin = StdRng::seed_from_u64((round << 32) ^ u);
                    if coin.gen_bool(self.sleep) {
                        *m = false;
                        self.slept += 1;
                    }
                }
            }
            LivenessEvent::Probe { .. } => self.refreshes += 1,
        }
    }
    fn on_delivery(&mut self, _round: u64, receiver: UserId, model: &SharedModel) {
        let emb = model.owner_emb.as_deref().map(bits);
        self.deliveries.push((model.owner.raw(), receiver.raw(), emb, bits(&model.agg)));
    }
}

/// Each round's deliveries and every node's [`NodeState`] bits after it.
type Trace = Vec<(Vec<Delivery>, Vec<Vec<u32>>)>;

/// A run's trace, how many nodes slept and refreshes fired over it, and the
/// longest cycle of awake senders any round's send graph held.
type Run = (Trace, usize, usize, usize);

/// The longest cycle in one round's sender → receiver graph.
fn longest_cycle(nodes: usize, deliveries: &[Delivery]) -> usize {
    let mut dest = vec![None; nodes];
    for (sender, receiver, ..) in deliveries {
        dest[*sender as usize] = Some(*receiver as usize);
    }
    let cycle_len = |start: usize| {
        let mut u = start;
        for len in 1..=nodes {
            u = dest[u]?;
            if u == start {
                return Some(len);
            }
        }
        None
    };
    (0..nodes).filter_map(cycle_len).max().unwrap_or(0)
}

/// One run's [`Run`] record.
fn trace<P: Participant + NodeState>(
    nodes: Vec<P>,
    cfg: GossipConfig,
    sleep: f64,
    dp: Option<DpConfig>,
) -> Run {
    let population = nodes.len();
    let mut sim = GossipSim::new(nodes, cfg);
    if let Some(dp) = dp {
        sim.set_update_transform(Box::new(DpMechanism::new(dp)));
    }
    let (mut slept, mut refreshes, mut longest) = (0, 0, 0);
    let trace = (0..ROUNDS)
        .map(|_| {
            let mut tape = Tape { sleep, deliveries: Vec::new(), slept: 0, refreshes: 0 };
            sim.step(&mut tape);
            slept += tape.slept;
            refreshes += tape.refreshes;
            longest = longest.max(longest_cycle(population, &tape.deliveries));
            (tape.deliveries, sim.nodes().iter().map(|n| bits(&n.state())).collect())
        })
        .collect();
    (trace, slept, refreshes, longest)
}

/// A few items per user, clustered by a 3-community split of the catalog.
fn train_items(u: u32) -> Vec<u32> {
    let base = (u % 3) * (ITEMS / 3);
    (0..5).map(|k| base + (u * 7 + k * 3) % (ITEMS / 3)).collect()
}

fn gmf_nodes(nodes: u32, policy: SharingPolicy) -> Vec<cia_models::GmfClient> {
    let spec = GmfSpec::new(ITEMS, 8);
    (0..nodes)
        .map(|u| spec.build_client(UserId::new(u), train_items(u), policy, u64::from(u) + 1))
        .collect()
}

fn prme_nodes(nodes: u32, policy: SharingPolicy) -> Vec<cia_models::PrmeClient> {
    let spec = PrmeSpec::new(ITEMS, 4);
    (0..nodes)
        .map(|u| {
            let items = train_items(u);
            let sequence = items.iter().rev().copied().collect();
            spec.build_client(UserId::new(u), items, sequence, policy, u64::from(u) + 1)
        })
        .collect()
}

fn assert_same((lent, slept, refreshes, longest): Run, (copied, ..): Run, sleep: f64, case: &str) {
    assert!(refreshes > 0, "{case}: no view refresh fired");
    assert!(longest >= 3, "{case}: no round's sends formed a cycle of three nodes or more");
    assert_eq!(slept > 0, sleep > 0.0, "{case}: slept {slept} nodes");
    assert_eq!(lent.len(), copied.len());
    for (t, (l, c)) in lent.iter().zip(&copied).enumerate() {
        assert!(!l.0.is_empty(), "{case}: round {t} delivered nothing");
        assert_eq!(l.0.len(), c.0.len(), "{case}: delivery counts of round {t} differ");
        if let Some(k) = l.0.iter().zip(&c.0).position(|(a, b)| a != b) {
            panic!("{case}: delivery {k} of round {t} differs");
        }
        for (u, (a, b)) in l.1.iter().zip(&c.1).enumerate() {
            assert_eq!(a.len(), b.len(), "{case}: state sizes of node {u} differ");
            if let Some(k) = a.iter().zip(b).position(|(x, y)| x != y) {
                panic!("{case}: state of node {u} after round {t} differs at coordinate {k}");
            }
        }
    }
}

#[test]
fn lending_and_copying_sends_agree_bit_for_bit() {
    let protocols = [GossipProtocol::Rand, GossipProtocol::Pers { exploration: 0.4 }];
    let dps = [
        None,
        Some(DpConfig { clip: 0.5, noise_multiplier: 0.0 }),
        Some(DpConfig { clip: 0.5, noise_multiplier: 0.8 }),
    ];
    let policies = [SharingPolicy::Full, SharingPolicy::ShareLess { tau: 0.3 }];
    for threads in ["1", "2", "3"] {
        std::env::set_var("CIA_THREADS", threads);
        for nodes in [12, 40] {
            for protocol in protocols {
                for sleep in [0.0, 0.4] {
                    for dp in dps {
                        for policy in policies {
                            let cfg = GossipConfig { rounds: ROUNDS, protocol, seed: 5 };
                            let case = format!(
                                "threads={threads} nodes={nodes} {protocol:?} sleep={sleep} \
                                 dp={dp:?} {policy:?}"
                            );
                            assert_same(
                                trace(gmf_nodes(nodes, policy), cfg, sleep, dp),
                                trace(copying(gmf_nodes(nodes, policy)), cfg, sleep, dp),
                                sleep,
                                &format!("GMF {case}"),
                            );
                            assert_same(
                                trace(prme_nodes(nodes, policy), cfg, sleep, dp),
                                trace(copying(prme_nodes(nodes, policy)), cfg, sleep, dp),
                                sleep,
                                &format!("PRME {case}"),
                            );
                        }
                    }
                }
            }
        }
    }
    std::env::remove_var("CIA_THREADS");
}
