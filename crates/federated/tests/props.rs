//! Property tests for the FedAvg round: under any participation fraction,
//! epoch count, seed and DP setting, the round replays bit for
//! bit whatever `CIA_THREADS` says, and a mid-run restore lands on the
//! uninterrupted trajectory.
//!
//! `one_and_three_threads_give_identical_rounds` is the only test in this
//! binary that sets `CIA_THREADS`. The other test may see the variable
//! flip while it runs, which is harmless: thread count never changes a
//! result, which is exactly the property under test.

use cia_data::UserId;
use cia_defenses::{DpConfig, DpMechanism};
use cia_federated::{FedAvg, FedAvgConfig, LivenessEvent, RoundObserver, RoundStats};
use cia_models::{Participant, SharedModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Deterministic toy client: params drift towards a per-community fixed
/// point with a small RNG perturbation, so any divergence in RNG stream
/// order between thread counts shows up in the parameters.
struct TestClient {
    user: UserId,
    params: Vec<f32>,
    target: Vec<f32>,
}

impl TestClient {
    fn new(user: u32) -> Self {
        let mut target = vec![0.0f32; 8];
        target[user as usize % 4] = 1.0;
        TestClient { user: UserId::new(user), params: vec![0.0; 8], target }
    }
}

impl Participant for TestClient {
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
}

fn sim(n: usize, cfg: FedAvgConfig) -> FedAvg<TestClient> {
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    FedAvg::new((0..n as u32).map(TestClient::new).collect(), cfg)
}

/// Observer taping every event the FL adversary can see.
#[derive(Default, Debug, PartialEq)]
struct Tape {
    acting: Vec<(u64, Vec<bool>)>,
    globals: Vec<(u64, Vec<f32>)>,
    models: Vec<(u64, u32, Vec<f32>)>,
    stats: Vec<RoundStats>,
}

impl RoundObserver for Tape {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { round, mask } = event {
            self.acting.push((round, mask.to_vec()));
        }
    }
    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        self.globals.push((round, global_agg.to_vec()));
    }
    fn on_client_model(&mut self, model: &SharedModel) {
        self.models.push((model.round, model.owner.raw(), model.agg.clone()));
    }
    fn on_round_end(&mut self, stats: &RoundStats) {
        self.stats.push(stats.clone());
    }
}

fn config(rounds: u64, participation: f64, epochs: usize, seed: u64) -> FedAvgConfig {
    FedAvgConfig { rounds, participation, local_epochs: epochs, seed }
}

/// Runs `rounds` rounds under `CIA_THREADS=threads`, returning the tape, the
/// final global and every client's parameters.
fn run_with_threads(
    threads: &str,
    n: usize,
    cfg: FedAvgConfig,
    dp: bool,
) -> (Tape, Vec<f32>, Vec<Vec<f32>>) {
    std::env::set_var("CIA_THREADS", threads);
    let mut s = sim(n, cfg);
    if dp {
        s.set_update_transform(Box::new(DpMechanism::new(DpConfig {
            clip: 0.5,
            noise_multiplier: 0.3,
        })));
    }
    let mut tape = Tape::default();
    for _ in 0..cfg.rounds {
        s.step(&mut tape);
    }
    let params = s.clients().iter().map(|c| c.params.clone()).collect();
    (tape, s.global_agg().to_vec(), params)
}

proptest! {
    #[test]
    fn one_and_three_threads_give_identical_rounds(
        n in 2usize..14,
        rounds in 1u64..5,
        participation in 0.2f64..1.0,
        epochs in 1usize..3,
        dp in any::<bool>(),
        seed in 0u64..(1 << 40),
    ) {
        let cfg = config(rounds, participation, epochs, seed);
        let serial = run_with_threads("1", n, cfg, dp);
        let parallel = run_with_threads("3", n, cfg, dp);
        std::env::remove_var("CIA_THREADS");
        prop_assert_eq!(&parallel.0, &serial.0, "observer tape drifted");
        prop_assert_eq!(&parallel.1, &serial.1, "global drifted");
        prop_assert_eq!(&parallel.2, &serial.2, "client parameters drifted");
    }

    #[test]
    fn mid_run_restore_replays_the_trajectory(
        n in 2usize..14,
        rounds in 2u64..6,
        cut in 1u64..5,
        participation in 0.2f64..1.0,
        seed in 0u64..(1 << 40),
    ) {
        prop_assume!(cut < rounds);
        let cfg = config(rounds, participation, 1, seed);
        let mut straight = sim(n, cfg);
        let mut straight_tape = Tape::default();
        for _ in 0..rounds {
            straight.step(&mut straight_tape);
        }

        let mut first = sim(n, cfg);
        let mut tape = Tape::default();
        for _ in 0..cut {
            first.step(&mut tape);
        }
        let global = first.global_agg().to_vec();
        let params: Vec<Vec<f32>> = first.clients().iter().map(Participant::state_vec).collect();
        drop(first);

        let mut resumed = sim(n, cfg);
        resumed.restore(cut, global).unwrap();
        for (node, p) in resumed.clients_mut().iter_mut().zip(&params) {
            node.restore_state(p).unwrap();
        }
        for _ in cut..rounds {
            resumed.step(&mut tape);
        }
        prop_assert_eq!(&tape, &straight_tape, "stitched tape diverged at cut {}", cut);
        prop_assert_eq!(resumed.global_agg(), straight.global_agg());
    }
}
