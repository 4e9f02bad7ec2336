//! Property test for the gossip round's thread-count invariance:
//! `CIA_THREADS=1` and `CIA_THREADS=3` give the same deliveries, stats,
//! views, traffic and node parameters, under partial wake, view refreshes,
//! DP and Pers-Gossip.
//!
//! Partial wake comes from the tape observer, which clears wake-mask
//! entries as a pure function of `(seed, round, node)`. Runs are long
//! enough that Exp(0.1) view refreshes fall due, and every case asserts
//! that some node slept and some refresh fired.
//!
//! `one_and_three_threads_give_identical_rounds` is the only test in this
//! binary, so setting `CIA_THREADS` races with nothing.

use cia_data::UserId;
use cia_defenses::{DpConfig, DpMechanism};
use cia_gossip::{
    GossipConfig, GossipObserver, GossipProtocol, GossipRoundStats, GossipSim, LivenessEvent,
};
use cia_models::{Participant, SharedModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic toy participant: params drift towards a per-community
/// fixed point during "training" with a small RNG perturbation, so any
/// divergence in RNG stream order between thread counts shows up in the
/// parameters.
struct TestNode {
    user: UserId,
    params: Vec<f32>,
    target: Vec<f32>,
}

impl TestNode {
    fn new(user: u32, community: usize) -> Self {
        let mut target = vec![0.0f32; 8];
        target[community % 8] = 1.0;
        TestNode { user: UserId::new(user), params: vec![0.0; 8], target }
    }
}

impl Participant for TestNode {
    fn user(&self) -> UserId {
        self.user
    }
    fn agg_len(&self) -> usize {
        8
    }
    fn agg(&self) -> &[f32] {
        &self.params
    }
    fn absorb_agg(&mut self, agg: &[f32]) {
        self.params.copy_from_slice(agg);
    }
    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        let mut dist = 0.0f32;
        for (p, t) in self.params.iter_mut().zip(&self.target) {
            *p += 0.5 * (t - *p) + rng.gen_range(-0.01f32..0.01);
            dist += (t - *p) * (t - *p);
        }
        dist
    }
    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        *slot = SharedModel { owner: self.user, round, owner_emb: None, agg: self.params.clone() };
    }
    fn num_examples(&self) -> usize {
        1 + self.user.raw() as usize % 3
    }
    fn evaluate_model(&self, model: &SharedModel) -> f32 {
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        -model.agg.iter().zip(&self.target).map(|(a, t)| (a - t) * (a - t)).sum::<f32>()
    }
}

fn sim(n: usize, cfg: GossipConfig) -> GossipSim<TestNode> {
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    let nodes = (0..n).map(|u| TestNode::new(u as u32, u % 4)).collect();
    GossipSim::new(nodes, cfg)
}

/// Whether node `u` of `n` sleeps in round `t`: a pure function of
/// `(seed, t, u)`, so thread counts and resumes see the same mask. About a
/// `sleep` share of the nodes sleep, and node `(seed + t) mod n` always does.
fn asleep(seed: u64, sleep: f64, t: u64, u: usize, n: usize) -> bool {
    let salt = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u as u64).wrapping_mul(0x5851_F42D);
    u as u64 == seed.wrapping_add(t) % n as u64
        || StdRng::seed_from_u64(seed ^ salt).gen_bool(sleep)
}

/// Observer taping every observable event; it also clears the wake-mask
/// entries [`asleep`] picks.
#[derive(Default, Debug, PartialEq)]
struct Tape {
    sleep: f64,
    seed: u64,
    /// Wake-mask entries cleared so far.
    slept: usize,
    /// Availability probes answered, one per view refresh that fell due.
    refreshes: usize,
    deliveries: Vec<(u64, u32, u32)>,
    stats: Vec<GossipRoundStats>,
}

impl Tape {
    fn new(sleep: f64, seed: u64) -> Self {
        Tape { sleep, seed, ..Tape::default() }
    }
}

impl GossipObserver for Tape {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        match event {
            LivenessEvent::ActingSet { round, mask } => {
                let n = mask.len();
                for (u, m) in mask.iter_mut().enumerate() {
                    if asleep(self.seed, self.sleep, round, u, n) {
                        *m = false;
                        self.slept += 1;
                    }
                }
            }
            LivenessEvent::Probe { .. } => self.refreshes += 1,
        }
    }
    fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
        self.deliveries.push((round, receiver.raw(), model.owner.raw()));
    }
    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        self.stats.push(stats.clone());
    }
}

/// Node parameters, views and traffic counters of a finished simulation.
type Observables = (Vec<Vec<f32>>, Vec<Vec<u32>>, cia_gossip::TrafficCounters);

/// Every observable byte of a finished simulation.
fn observables(s: &GossipSim<TestNode>) -> Observables {
    let params = s.nodes().iter().map(|c| c.params.clone()).collect();
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    let views = (0..s.nodes().len() as u32).map(|u| s.view_of(u).to_vec()).collect();
    (params, views, s.traffic().clone())
}

fn config(rounds: u64, pers: bool, seed: u64) -> GossipConfig {
    let protocol =
        if pers { GossipProtocol::Pers { exploration: 0.4 } } else { GossipProtocol::Rand };
    GossipConfig { rounds, protocol, seed }
}

/// Runs every configured round under `CIA_THREADS=threads` with a `sleep`
/// share of each wake set cleared, returning the tape and the finished
/// simulation's observables.
fn run_with_threads(
    threads: &str,
    n: usize,
    cfg: GossipConfig,
    sleep: f64,
    dp: bool,
) -> (Tape, Observables) {
    std::env::set_var("CIA_THREADS", threads);
    let mut s = sim(n, cfg);
    if dp {
        s.set_update_transform(Box::new(DpMechanism::new(DpConfig {
            clip: 0.5,
            noise_multiplier: 0.3,
        })));
    }
    let mut tape = Tape::new(sleep, cfg.seed);
    for _ in 0..cfg.rounds {
        s.step(&mut tape);
    }
    (tape, observables(&s))
}

proptest! {
    #[test]
    fn one_and_three_threads_give_identical_rounds(
        n in 6usize..16,
        rounds in 16u64..24,
        sleep in 0.0f64..0.7,
        pers in any::<bool>(),
        dp in any::<bool>(),
        seed in 0u64..(1 << 40),
    ) {
        let cfg = config(rounds, pers, seed);
        let serial = run_with_threads("1", n, cfg, sleep, dp);
        let parallel = run_with_threads("3", n, cfg, sleep, dp);
        std::env::remove_var("CIA_THREADS");
        prop_assert!(serial.0.slept > 0 && serial.0.refreshes > 0, "no node slept or refreshed");
        prop_assert_eq!(&parallel.0, &serial.0, "observer tape drifted");
        prop_assert_eq!(&parallel.1, &serial.1, "params, views or traffic drifted");
    }
}
