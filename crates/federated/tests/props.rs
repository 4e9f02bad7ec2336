//! Property tests for the FedAvg round: under any participation fraction,
//! epoch count, seed and DP setting, the round replays bit for
//! bit whatever `CIA_THREADS` says, and a mid-run restore lands on the
//! uninterrupted trajectory. Partial participation comes from the tape
//! observer, which clears acting-set entries as a pure function of
//! `(seed, round, client)`; every case asserts that some client sat out.
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
use rand::{Rng, SeedableRng};

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

/// Whether client `u` of `n` sits out round `t`: a pure function of
/// `(seed, t, u)`, so thread counts and resumes see the same mask. About a
/// `1 - participation` share sits out, and client `(seed + t) mod n` always
/// does.
fn unsampled(seed: u64, participation: f64, t: u64, u: usize, n: usize) -> bool {
    let salt = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u as u64).wrapping_mul(0x5851_F42D);
    u as u64 == seed.wrapping_add(t) % n as u64
        || !StdRng::seed_from_u64(seed ^ salt).gen_bool(participation)
}

/// Observer taping every event the FL adversary can see; it also clears
/// the acting-set entries [`unsampled`] picks.
#[derive(Default, Debug, PartialEq)]
struct Tape {
    /// Rough share of clients that act each round.
    keep: f64,
    seed: u64,
    acting: Vec<(u64, Vec<bool>)>,
    globals: Vec<(u64, Vec<f32>)>,
    models: Vec<(u64, u32, Vec<f32>)>,
    stats: Vec<RoundStats>,
}

impl Tape {
    fn new(keep: f64, seed: u64) -> Self {
        Tape { keep, seed, ..Tape::default() }
    }

    /// Whether some client sat out some round.
    fn someone_sat_out(&self) -> bool {
        self.acting.iter().any(|(_, mask)| mask.contains(&false))
    }
}

impl RoundObserver for Tape {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { round, mask } = event {
            let n = mask.len();
            for (u, m) in mask.iter_mut().enumerate() {
                *m &= !unsampled(self.seed, self.keep, round, u, n);
            }
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

/// Runs `rounds` rounds under `CIA_THREADS=threads`, returning the tape, the
/// final global and every client's parameters.
fn run_with_threads(
    threads: &str,
    n: usize,
    cfg: FedAvgConfig,
    participation: f64,
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
    let mut tape = Tape::new(participation, cfg.seed);
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
        let cfg = FedAvgConfig { rounds, local_epochs: epochs, seed };
        let serial = run_with_threads("1", n, cfg, participation, dp);
        let parallel = run_with_threads("3", n, cfg, participation, dp);
        std::env::remove_var("CIA_THREADS");
        prop_assert!(serial.0.someone_sat_out(), "every client acted every round");
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
        let cfg = FedAvgConfig { rounds, local_epochs: 1, seed };
        let mut straight = sim(n, cfg);
        let mut straight_tape = Tape::new(participation, seed);
        for _ in 0..rounds {
            straight.step(&mut straight_tape);
        }
        prop_assert!(straight_tape.someone_sat_out(), "every client acted every round");

        let mut first = sim(n, cfg);
        let mut tape = Tape::new(participation, seed);
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
