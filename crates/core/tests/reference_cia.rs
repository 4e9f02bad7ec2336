//! Differential reference for the momentum Community Inference Attack.
//!
//! [`Oracle`] is a deliberately naive, single-threaded restatement of the
//! attack of Algorithms 1 and 2: a `Vec` of optional `(embedding, params)`
//! momentum pairs updated with Eq. 4 element by element, one relevance row
//! per seen sender, a full `sort_by(rank_desc)` per target, owner exclusion,
//! Eq. 6 accuracy and both coverage bounds. A tee observer feeds it and the
//! production engine the same event stream from a real FedAvg or gossip run;
//! the evaluated histories and the final predicted communities must agree
//! exactly.
//!
//! The oracle scores every (model, target) pair on its own through
//! [`RelevanceEvaluator::relevance_one`], so the engine's tiled scoring
//! (several models per call, with holes and partial tiles) is under test
//! together with the momentum bookkeeping, ranking and bounds. Only the
//! evaluator's per-pair score, the Share-less fictive-embedding training and
//! the [`AttackTracker`] aggregation are shared with the engine on purpose.

use cia_core::metrics::rank_desc;
use cia_core::{
    AttackTracker, CiaConfig, FlCia, GlCiaCoalition, ItemSetEvaluator, RelevanceEvaluator,
};
use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig, UserId};
use cia_federated::{FedAvg, FedAvgConfig, RoundObserver, RoundStats};
use cia_gossip::{GossipConfig, GossipObserver, GossipRoundStats, GossipSim};
use cia_models::{GmfClient, GmfHyper, GmfSpec, LivenessEvent, SharedModel, SharingPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Eval = ItemSetEvaluator<GmfSpec>;

/// One sender's momentum: the owner embedding (if shared) and the
/// aggregatable parameters.
type Momentum = (Option<Vec<f32>>, Vec<f32>);

/// The naive attack. `members == None` is the FL server (sees every upload);
/// `Some(mask)` is a gossip coalition (sees deliveries to its members).
struct Oracle {
    cfg: CiaConfig,
    evaluator: Eval,
    truths: Vec<Vec<UserId>>,
    owners: Vec<Option<UserId>>,
    members: Option<Vec<bool>>,
    momentum: Vec<Option<Momentum>>,
    live: Vec<bool>,
    reference: Option<Vec<f32>>,
    prepared: bool,
    tracker: AttackTracker,
}

impl Oracle {
    fn new(case: &Case, members: Option<&[u32]>) -> Self {
        let n = case.users;
        let candidates = n - usize::from(case.owners.iter().any(Option::is_some));
        Oracle {
            cfg: case.cfg,
            evaluator: case.evaluator(),
            truths: case.truths.clone(),
            owners: case.owners.clone(),
            members: members.map(|m| member_mask(m, n)),
            momentum: vec![None; n],
            live: vec![true; n],
            reference: None,
            prepared: false,
            tracker: AttackTracker::new(case.cfg.k, candidates),
        }
    }

    fn liveness(&mut self, event: &LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { mask, .. } = event {
            self.live.copy_from_slice(mask);
        }
    }

    fn observe(&mut self, model: &SharedModel) {
        let beta = self.cfg.beta;
        let blend = |v: &mut [f32], theta: &[f32]| {
            for (v, &x) in v.iter_mut().zip(theta) {
                *v = beta * *v + (1.0 - beta) * x;
            }
        };
        match &mut self.momentum[model.owner.index()] {
            slot @ None => *slot = Some((model.owner_emb.clone(), model.agg.clone())),
            Some((emb, agg)) => {
                blend(agg, &model.agg);
                if let (Some(v), Some(theta)) = (emb, &model.owner_emb) {
                    blend(v, theta);
                }
            }
        }
    }

    fn deliver(&mut self, receiver: UserId, model: &SharedModel) {
        if self.members.as_ref().is_some_and(|m| m[receiver.index()]) {
            self.reference = Some(model.agg.clone());
            self.observe(model);
        }
    }

    /// Every seen sender's relevance row, one (model, target) pair at a time.
    fn relevance(&self) -> Vec<Option<Vec<f32>>> {
        let targets = 0..self.evaluator.num_targets();
        let row = |(emb, agg): &Momentum| {
            targets.clone().map(|t| self.evaluator.relevance_one(emb.as_deref(), agg, t)).collect()
        };
        self.momentum.iter().map(|m| m.as_ref().map(row)).collect()
    }

    /// The top-`K` community predicted for target `t`.
    fn predict(&self, rel: &[Option<Vec<f32>>], t: usize) -> Vec<UserId> {
        let mut scored = Vec::new();
        for (u, row) in (0u32..).zip(rel) {
            if let Some(row) = row {
                if self.owners[t] != Some(UserId::new(u)) {
                    scored.push((row[t], u));
                }
            }
        }
        scored.sort_by(rank_desc);
        scored.iter().take(self.cfg.k).map(|&(_, u)| UserId::new(u)).collect()
    }

    fn end_round(&mut self, round: u64) {
        if !(round + 1).is_multiple_of(self.cfg.eval_every) {
            return;
        }
        if let Some(reference) = &self.reference {
            // The engine's refresh rule, copied with its known defect: for
            // `eval_every > 1` it never holds again after the first prepare.
            if !self.prepared || round.is_multiple_of(self.cfg.eval_every * 4) {
                self.evaluator.prepare(reference, self.cfg.seed ^ round);
                self.prepared = true;
            }
        }
        let rel = self.relevance();
        let k = self.cfg.k as f64;
        let (mut accs, mut uppers, mut uppers_online) = (Vec::new(), Vec::new(), Vec::new());
        for (t, truth) in self.truths.iter().enumerate() {
            let predicted = self.predict(&rel, t);
            let hits = predicted.iter().filter(|u| truth.contains(u)).count();
            accs.push(hits as f64 / k);
            let seen: Vec<&UserId> =
                truth.iter().filter(|u| self.momentum[u.index()].is_some()).collect();
            uppers.push(seen.len() as f64 / k);
            let seen_live = seen.iter().filter(|u| self.live[u.index()]).count();
            uppers_online.push(seen_live as f64 / k);
        }
        self.tracker.record_with_online(round, &accs, &uppers, &uppers_online);
    }
}

fn member_mask(members: &[u32], n: usize) -> Vec<bool> {
    (0..n).map(|u| members.iter().any(|&m| m as usize == u)).collect()
}

/// One random small population with GMF at the paper dimension (d = 8),
/// under full sharing or Share-less. Its 6–13 users leave the last scoring
/// tile partial.
struct Case {
    users: usize,
    cfg: CiaConfig,
    spec: GmfSpec,
    share_less: bool,
    train_sets: Vec<Vec<u32>>,
    truths: Vec<Vec<UserId>>,
    owners: Vec<Option<UserId>>,
}

impl Case {
    fn new(
        seed: u64,
        users: usize,
        k: usize,
        beta: f32,
        eval_every: u64,
        share_less: bool,
    ) -> Self {
        let data = SyntheticConfig::builder()
            .users(users)
            .items(60)
            .communities(2)
            .interactions_per_user(8)
            .seed(seed)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 5, seed).unwrap();
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let ids = (0u32..).take(users);
        // Every user's train set is a target; odd targets have no owner to
        // exclude, so both candidate pools are exercised.
        let owners = ids.clone().map(|u| (u % 2 == 0).then_some(UserId::new(u))).collect();
        Case {
            users,
            cfg: CiaConfig { k, beta, eval_every, seed },
            spec: GmfSpec::new(60, 8, GmfHyper::default()),
            share_less,
            train_sets: split.train_sets().to_vec(),
            truths: ids.map(|u| gt.community_of(UserId::new(u)).to_vec()).collect(),
            owners,
        }
    }

    fn evaluator(&self) -> Eval {
        ItemSetEvaluator::new(self.spec.clone(), self.train_sets.clone(), self.share_less)
    }

    fn clients(&self) -> Vec<GmfClient> {
        let policy = if self.share_less {
            SharingPolicy::ShareLess { tau: 0.3 }
        } else {
            SharingPolicy::Full
        };
        (0u32..)
            .zip(&self.train_sets)
            .map(|(u, items)| {
                let id = UserId::new(u);
                self.spec.build_client(id, items.clone(), policy, u64::from(u))
            })
            .collect()
    }

    /// The engine's and the oracle's final predictions for every target.
    fn predictions<V>(
        &self,
        engine: &mut cia_core::MomentumCia<Eval, V>,
        oracle: &Oracle,
    ) -> (Vec<Vec<UserId>>, Vec<Vec<UserId>>) {
        let rel = oracle.relevance();
        let targets = 0..self.users;
        (
            targets.clone().map(|t| engine.predict(t)).collect(),
            targets.map(|t| oracle.predict(&rel, t)).collect(),
        )
    }
}

/// Whether user `u` acts in round `t` at this participation: a coin flip
/// that is a pure function of `(seed, t, u)`.
fn sampled(seed: u64, participation: f64, t: u64, u: u64) -> bool {
    StdRng::seed_from_u64(seed ^ (t << 32) ^ u).gen_bool(participation)
}

/// Drives the FL engine and the oracle with one FedAvg run; users whose id
/// and round share a residue mod 3 are dropped from the acting set, and the
/// rest act when [`sampled`]. The tee lends no momentum table, so FedAvg
/// hands both every model on the serial path.
struct FlTee<'a> {
    engine: &'a mut FlCia<Eval>,
    oracle: &'a mut Oracle,
    participation: f64,
    seed: u64,
}

impl RoundObserver for FlTee<'_> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { round, mask } = event {
            for (u, m) in (0u64..).zip(mask.iter_mut()) {
                if u % 3 == round % 3 || !sampled(self.seed, self.participation, round, u) {
                    *m = false;
                }
            }
            let event = LivenessEvent::ActingSet { round, mask };
            self.oracle.liveness(&event);
            self.engine.on_liveness(event);
        }
    }

    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        self.oracle.reference = Some(global_agg.to_vec());
        self.engine.on_global(round, global_agg);
    }

    fn on_client_model(&mut self, model: &SharedModel) {
        self.oracle.observe(model);
        self.engine.on_client_model(model);
    }

    fn on_round_end(&mut self, stats: &RoundStats) {
        self.oracle.end_round(stats.round);
        self.engine.on_round_end(stats);
    }
}

/// Drives the coalition engine and the oracle with one gossip run, moving
/// the coalition onto `relocated` after round `relocate_after`. Users wake
/// when [`sampled`] at `wake_fraction`, except that user `(seed + round)
/// mod n` always sleeps; `slept` counts the cleared entries.
struct GlTee<'a> {
    engine: &'a mut GlCiaCoalition<Eval>,
    oracle: &'a mut Oracle,
    relocate_after: u64,
    relocated: Vec<u32>,
    wake_fraction: f64,
    seed: u64,
    slept: usize,
}

impl GossipObserver for GlTee<'_> {
    fn on_liveness(&mut self, mut event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { round, mask } = &mut event {
            let sleeper = self.seed.wrapping_add(*round) % mask.len() as u64;
            for (u, m) in (0u64..).zip(mask.iter_mut()) {
                if u == sleeper || !sampled(self.seed, self.wake_fraction, *round, u) {
                    *m = false;
                    self.slept += 1;
                }
            }
        }
        self.oracle.liveness(&event);
        self.engine.on_liveness(event);
    }

    fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
        self.oracle.deliver(receiver, model);
        self.engine.on_delivery(round, receiver, model);
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        self.oracle.end_round(stats.round);
        self.engine.on_round_end(stats);
        if stats.round == self.relocate_after {
            self.engine.set_members(&self.relocated);
            self.oracle.members = Some(member_mask(&self.relocated, self.oracle.live.len()));
        }
    }
}

const BETAS: [f32; 4] = [0.0, 0.5, 0.9, 0.99];

proptest! {
    #[test]
    fn fl_engine_matches_reference(
        seed in 0u64..1_000,
        users in 6usize..14,
        k in 1usize..4,
        beta in 0usize..4,
        eval_every in 1u64..3,
        participation in 0.4f64..0.95,
        share_less in any::<bool>(),
    ) {
        let case = Case::new(seed, users, k, BETAS[beta], eval_every, share_less);
        let mut engine = FlCia::new(
            case.cfg,
            case.evaluator(),
            users,
            case.truths.clone(),
            case.owners.clone(),
        );
        let mut oracle = Oracle::new(&case, None);
        let cfg = FedAvgConfig { rounds: 5, seed, ..Default::default() };
        let mut tee = FlTee { engine: &mut engine, oracle: &mut oracle, participation, seed };
        FedAvg::new(case.clients(), cfg).run(&mut tee);
        prop_assert!(oracle.live.contains(&false), "every user acted in the last round");
        prop_assert!(!oracle.tracker.history().is_empty());
        prop_assert_eq!(engine.history(), oracle.tracker.history());
        let (got, want) = case.predictions(&mut engine, &oracle);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn coalition_engine_matches_reference(
        seed in 0u64..1_000,
        users in 6usize..14,
        k in 1usize..4,
        beta in 0usize..4,
        eval_every in 1u64..3,
        wake_fraction in 0.5f64..1.0,
    ) {
        let case = Case::new(seed, users, k, BETAS[beta], eval_every, false);
        let n = u32::try_from(users).unwrap();
        let members = [0, n / 2];
        let mut engine = GlCiaCoalition::new(
            case.cfg,
            case.evaluator(),
            users,
            &members,
            case.truths.clone(),
            case.owners.clone(),
        );
        let mut oracle = Oracle::new(&case, Some(&members));
        let cfg = GossipConfig { rounds: 6, seed, ..Default::default() };
        let mut tee = GlTee {
            engine: &mut engine,
            oracle: &mut oracle,
            relocate_after: 2,
            relocated: vec![1, n - 1],
            wake_fraction,
            seed,
            slept: 0,
        };
        GossipSim::new(case.clients(), cfg).run(&mut tee);
        prop_assert!(tee.slept > 0, "no node slept");
        prop_assert!(!oracle.tracker.history().is_empty());
        prop_assert_eq!(engine.history(), oracle.tracker.history());
        let (got, want) = case.predictions(&mut engine, &oracle);
        prop_assert_eq!(got, want);
    }
}
