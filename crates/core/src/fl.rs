//! The momentum CIA shared by Algorithms 1 and 2, and its federated vantage
//! (Algorithm 1): the adversary controls the server and attacks with the
//! models received from sampled users each round.

use crate::evaluator::{RelevanceEvaluator, TILE};
use crate::metrics::{accuracy_of, coverage, top_k_per_column, AttackOutcome, AttackTracker};
use cia_data::UserId;
use cia_federated::{RoundObserver, RoundStats};
use cia_models::parallel::par_for_each_mut;
use cia_models::{LivenessEvent, MomentumTable, SharedModel};
use cia_obs::Recorder;

/// CIA parameters (the paper defaults to `K = 50`, `β = 0.99`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiaConfig {
    /// Community size `K`.
    pub k: usize,
    /// Momentum coefficient `β` of Eq. 4 (0 disables smoothing).
    pub beta: f32,
    /// Evaluate (rank + score) every this many rounds; momentum is updated
    /// every round regardless.
    pub eval_every: u64,
    /// Seed for the adversary's own randomness (fictive embedding training).
    pub seed: u64,
}

impl Default for CiaConfig {
    fn default() -> Self {
        CiaConfig { k: 50, beta: 0.99, eval_every: 1, seed: 0 }
    }
}

/// The momentum CIA: one Eq. 4 momentum model per sender, ranked at every
/// evaluation round by the relevance it assigns to each target. The vantage
/// `V` decides only which models reach the adversary: [`FlCia`] (the server)
/// or [`crate::GlCiaCoalition`] (gossip colluders).
pub struct MomentumCia<E: RelevanceEvaluator, V> {
    cfg: CiaConfig,
    evaluator: E,
    /// Truth community per target, aligned with the evaluator's targets and
    /// sorted by id, so counting hits is a binary search per prediction.
    truths: Vec<Vec<UserId>>,
    /// Per-target owner to exclude from candidates (the user whose train set
    /// is the target), if any.
    owners: Vec<Option<UserId>>,
    /// Per-sender momentum, one slab row per sender id (the gossip engines'
    /// tests read it).
    pub(crate) momentum: MomentumTable,
    /// Flat `num_users × num_targets` relevance matrix, reused across
    /// evaluation rounds (rows of never-seen users stay untouched and are
    /// skipped at ranking time).
    rel: Vec<f32>,
    /// The most recent acting-set mask delivered through `on_liveness` —
    /// the dynamics layer's live set, feeding the per-round online upper
    /// bound. All-true until a mask arrives (static populations never shrink
    /// it).
    live: Vec<bool>,
    tracker: AttackTracker,
    /// Last public parameters seen, the reference `prepare` runs against.
    pub(crate) reference: Option<Vec<f32>>,
    prepared: bool,
    /// Metrics sink for the attack-phase spans (prepare/score/rank/update);
    /// a detached default until the runner wires in the shared recorder.
    obs: Recorder,
    pub(crate) vantage: V,
}

impl<E: RelevanceEvaluator, V> MomentumCia<E, V> {
    /// The constructor behind each vantage's `new`.
    pub(crate) fn with_vantage(
        cfg: CiaConfig,
        evaluator: E,
        num_users: usize,
        mut truths: Vec<Vec<UserId>>,
        owners: Vec<Option<UserId>>,
        vantage: V,
    ) -> Self {
        assert!(cfg.k > 0, "community size must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        assert!((0.0..=1.0).contains(&cfg.beta), "beta must be in [0, 1]");
        assert_eq!(truths.len(), evaluator.num_targets(), "one truth per target");
        assert_eq!(owners.len(), evaluator.num_targets(), "one owner entry per target");
        let candidates = num_users.saturating_sub(usize::from(owners.iter().any(Option::is_some)));
        truths.iter_mut().for_each(|t| t.sort_unstable());
        MomentumCia {
            tracker: AttackTracker::new(cfg.k, candidates),
            rel: vec![0.0; num_users * evaluator.num_targets()],
            live: vec![true; num_users],
            cfg,
            evaluator,
            truths,
            owners,
            momentum: MomentumTable::new(num_users),
            reference: None,
            prepared: false,
            obs: Recorder::new(),
            vantage,
        }
    }

    /// Routes the attack's spans into a shared recorder (the default sink is
    /// detached). Clones are cheap; all clones share one registry.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The attack summary.
    pub fn outcome(&self) -> AttackOutcome {
        self.tracker.outcome()
    }

    /// The evaluated per-round history so far (streaming access for suite
    /// runners that emit one record per evaluation).
    pub fn history(&self) -> &[crate::metrics::RoundPoint] {
        self.tracker.history()
    }

    /// The relevance evaluator.
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Whether any model has reached the adversary so far.
    pub fn observed_any(&self) -> bool {
        self.momentum.seen().next().is_some()
    }

    /// Predicted community for target `t` at the last evaluation (requires at
    /// least one evaluation round). Exposed for the motivating example.
    pub fn predict(&mut self, target: usize) -> Vec<UserId> {
        self.refresh_relevance();
        self.rank_all()[target].clone()
    }

    /// Folds one observed model into its sender's momentum (Eq. 4; the first
    /// sighting copies the model).
    pub(crate) fn observe(&mut self, model: &SharedModel) {
        let _update = self.obs.span("attack_update");
        let (u, emb) = (model.owner.index(), model.owner_emb.as_deref());
        self.momentum.observe(u, self.cfg.beta, emb, &model.agg);
    }

    /// Tracks the dynamics layer's live set for the online upper bound.
    pub(crate) fn observe_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { mask, .. } = event {
            // One entry per participant; a length mismatch is a wiring bug
            // and must fail loudly rather than leave part of the live set
            // stale.
            self.live.copy_from_slice(mask);
        }
    }

    /// Evaluates at the end of every `eval_every`-th round.
    pub(crate) fn end_round(&mut self, round: u64) {
        if (round + 1).is_multiple_of(self.cfg.eval_every) {
            self.evaluate(round);
        }
    }

    /// Scores every seen user's momentum model against every target, into the
    /// reusable flat relevance matrix (one row per user). Blocks of `TILE`
    /// user ids are scored as one tile each, in parallel; the rows of unseen
    /// users stay untouched.
    fn refresh_relevance(&mut self) {
        let num_targets = self.evaluator.num_targets();
        if num_targets == 0 {
            return; // degenerate zero-target attack; nothing to score
        }
        let (rel, momentum, evaluator) = (&mut self.rel, &self.momentum, &self.evaluator);
        let mut tiles: Vec<&mut [f32]> = rel.chunks_mut(TILE * num_targets).collect();
        par_for_each_mut(&mut tiles, |tile, rows| {
            let ids = tile * TILE..tile * TILE + rows.len() / num_targets;
            let models: Vec<_> = ids.clone().filter_map(|u| momentum.get(u)).collect();
            if models.len() == ids.len() {
                evaluator.relevance_tile(&models, rows);
            } else if !models.is_empty() {
                // Holes: score the seen users as one tile, then copy each
                // row home.
                let mut scored = vec![0.0; models.len() * num_targets];
                evaluator.relevance_tile(&models, &mut scored);
                let seen = ids.zip(rows.chunks_exact_mut(num_targets));
                let seen = seen.filter_map(|(u, row)| (momentum.updates(u) > 0).then_some(row));
                for (row, s) in seen.zip(scored.chunks_exact(num_targets)) {
                    row.copy_from_slice(s);
                }
            }
        });
    }

    /// Runs the ranking for every target against the relevance matrix
    /// ([`MomentumCia::refresh_relevance`] must have run since the last
    /// momentum update).
    fn rank_all(&self) -> Vec<Vec<UserId>> {
        let num_targets = self.evaluator.num_targets();
        let (momentum, owners) = (&self.momentum, &self.owners);
        top_k_per_column(&self.rel, num_targets, self.cfg.k, |id, t| {
            momentum.updates(id as usize) > 0 && owners[t] != Some(UserId::new(id))
        })
    }

    fn evaluate(&mut self, round: u64) {
        let obs = self.obs.clone();
        if let Some(reference) = &self.reference {
            // Re-prepares on rounds r ≡ 0 (mod 4·eval_every), but this runs
            // only on rounds r ≡ eval_every − 1 (mod eval_every). That is
            // every fourth round for `eval_every == 1`; for any larger
            // `eval_every` the fictive embeddings are prepared once, at the
            // first evaluation with a reference, and never refreshed.
            if !self.prepared || round.is_multiple_of((self.cfg.eval_every * 4).max(1)) {
                let _prepare = obs.span("attack_prepare");
                self.evaluator.prepare(reference, self.cfg.seed ^ round);
                self.prepared = true;
            }
        }
        {
            let _score = obs.span("attack_score");
            self.refresh_relevance();
        }
        let _rank = obs.span("attack_rank");
        let predictions = self.rank_all();
        let mut accs = Vec::with_capacity(predictions.len());
        let mut uppers = Vec::with_capacity(predictions.len());
        let mut uppers_online = Vec::with_capacity(predictions.len());
        let (k, seen) = (self.cfg.k, |u: &UserId| self.momentum.updates(u.index()) > 0);
        for (pred, truth) in predictions.iter().zip(&self.truths) {
            accs.push(accuracy_of(pred, k, |u| truth.binary_search(u).is_ok()));
            uppers.push(coverage(truth, k, seen));
            uppers_online.push(coverage(truth, k, |u| seen(u) && self.live[u.index()]));
        }
        self.tracker.record(round, &accs, &uppers, &uppers_online);
    }
}

/// The FL vantage: the adversary is the server and observes every sampled
/// user's upload, preparing against the global model it broadcasts.
pub struct ServerVantage;

/// Algorithm 1: the server-side Community Inference Attack.
///
/// Plug an instance into [`cia_federated::FedAvg::run`] as the observer; the
/// attack maintains one momentum model per user and at every evaluation round
/// ranks users by the relevance their averaged model assigns to each target.
pub type FlCia<E> = MomentumCia<E, ServerVantage>;

impl<E: RelevanceEvaluator> FlCia<E> {
    /// Creates the attack for `num_users` participants.
    ///
    /// `truths[t]` is the ground-truth community of the evaluator's target
    /// `t` (Eq. 5); `owners[t]` optionally excludes the target's donor user
    /// from the candidate ranking.
    ///
    /// # Panics
    ///
    /// Panics if the truth/owner tables are not aligned with the evaluator's
    /// targets, `k == 0`, `eval_every == 0` or `beta` is outside `[0, 1]`.
    pub fn new(
        cfg: CiaConfig,
        evaluator: E,
        num_users: usize,
        truths: Vec<Vec<UserId>>,
        owners: Vec<Option<UserId>>,
    ) -> Self {
        Self::with_vantage(cfg, evaluator, num_users, truths, owners, ServerVantage)
    }
}

impl<E: RelevanceEvaluator> RoundObserver for FlCia<E> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        self.observe_liveness(event);
    }

    fn on_global(&mut self, _round: u64, global_agg: &[f32]) {
        // Reuses the reference buffer: no allocation per round.
        global_agg.clone_into(self.reference.get_or_insert_with(Vec::new));
    }

    fn on_client_model(&mut self, model: &SharedModel) {
        self.observe(model);
    }

    fn momentum_table(&mut self) -> Option<(f32, &mut MomentumTable)> {
        Some((self.cfg.beta, &mut self.momentum))
    }

    fn on_round_end(&mut self, stats: &RoundStats) {
        self.end_round(stats.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ItemSetEvaluator;
    use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig};
    use cia_federated::{FedAvg, FedAvgConfig};
    use cia_models::{GmfSpec, SharingPolicy};

    /// End-to-end: FL + GMF on a planted-community dataset; CIA must beat the
    /// random bound by a wide margin.
    #[test]
    fn recovers_planted_communities_in_fl() {
        let users = 36;
        let data = SyntheticConfig::builder()
            .users(users)
            .items(120)
            .communities(6)
            .interactions_per_user(14)
            .seed(7)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 3).unwrap();
        let k = 5;
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let spec = GmfSpec::new(120, 8);
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(
                    UserId::from_index(u),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect();

        let evaluator = ItemSetEvaluator::new(spec.clone(), split.train_sets().to_vec(), false);
        let truths: Vec<Vec<UserId>> =
            (0..users).map(|u| gt.community_of(UserId::from_index(u)).to_vec()).collect();
        let owners: Vec<Option<UserId>> = (0..users).map(|u| Some(UserId::from_index(u))).collect();
        let mut attack = FlCia::new(
            CiaConfig { k, beta: 0.9, eval_every: 2, seed: 0 },
            evaluator,
            users,
            truths,
            owners,
        );

        let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 20, local_epochs: 2, seed: 2 });
        sim.run(&mut attack);

        let out = attack.outcome();
        let random = out.random_bound;
        assert!(
            out.max_aac > 3.0 * random,
            "CIA did not beat random: {} vs bound {random}",
            out.max_aac
        );
        assert!(out.best10_aac >= out.max_aac * 0.8 || out.best10_aac > out.random_bound);
        // FL adversary sees everyone: upper bound 1, and with a static
        // population the online bound agrees.
        assert!((out.upper_bound - 1.0).abs() < 1e-9);
        assert_eq!(out.upper_bound_online, out.upper_bound);
        assert_eq!(out.history.len(), 10);
    }

    #[test]
    fn online_bound_tracks_the_live_mask() {
        // Round 0 observes everyone; from round 1 on, odd users are offline.
        // The static bound stays at full coverage (their momentum persists)
        // while the online bound drops to the live half.
        let users = 12;
        let data = SyntheticConfig::builder()
            .users(users)
            .items(60)
            .communities(2)
            .interactions_per_user(8)
            .seed(4)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 5, 0).unwrap();
        let k = 3;
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let spec = GmfSpec::new(60, 4);
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(
                    UserId::from_index(u),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect();
        let truths: Vec<Vec<UserId>> =
            (0..users).map(|u| gt.community_of(UserId::from_index(u)).to_vec()).collect();
        let owners = (0..users).map(|u| Some(UserId::from_index(u))).collect();
        let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
        let attack = FlCia::new(
            CiaConfig { k, beta: 0.99, eval_every: 1, seed: 0 },
            evaluator,
            users,
            truths,
            owners,
        );

        struct OddOffline<E: crate::evaluator::RelevanceEvaluator>(FlCia<E>);
        impl<E: crate::evaluator::RelevanceEvaluator> RoundObserver for OddOffline<E> {
            fn on_liveness(&mut self, event: LivenessEvent<'_>) {
                if let LivenessEvent::ActingSet { round, mask } = event {
                    if round >= 1 {
                        for (u, m) in mask.iter_mut().enumerate() {
                            if u % 2 == 1 {
                                *m = false;
                            }
                        }
                    }
                    self.0.on_liveness(LivenessEvent::ActingSet { round, mask });
                }
            }
            fn on_global(&mut self, round: u64, global_agg: &[f32]) {
                self.0.on_global(round, global_agg);
            }
            fn on_client_model(&mut self, model: &SharedModel) {
                self.0.on_client_model(model);
            }
            fn on_round_end(&mut self, stats: &RoundStats) {
                self.0.on_round_end(stats);
            }
        }

        let mut obs = OddOffline(attack);
        let mut sim =
            FedAvg::new(clients, FedAvgConfig { rounds: 4, seed: 8, ..Default::default() });
        sim.run(&mut obs);
        let history = obs.0.history().to_vec();
        assert_eq!(history.len(), 4);
        // Full coverage after round 0 either way.
        assert!((history[1].upper_bound - 1.0).abs() < 1e-9);
        for p in &history[1..] {
            assert!(
                p.upper_bound_online < p.upper_bound,
                "round {}: online bound {} not below static {}",
                p.round,
                p.upper_bound_online,
                p.upper_bound
            );
        }
        // Round 0 saw everyone live.
        assert_eq!(history[0].upper_bound_online, history[0].upper_bound);
    }

    #[test]
    fn momentum_states_cover_all_sampled_users() {
        let data = SyntheticConfig::builder()
            .users(10)
            .items(60)
            .communities(2)
            .interactions_per_user(8)
            .seed(1)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 5, 0).unwrap();
        let spec = GmfSpec::new(60, 4);
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(
                    UserId::from_index(u),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect();
        let gt = GroundTruth::from_train_sets(split.train_sets(), 2);
        let truths: Vec<Vec<UserId>> =
            (0..10).map(|u| gt.community_of(UserId::new(u)).to_vec()).collect();
        let owners = (0..10).map(|u| Some(UserId::new(u))).collect();
        let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
        let mut attack = FlCia::new(
            CiaConfig { k: 2, beta: 0.99, eval_every: 1, seed: 0 },
            evaluator,
            10,
            truths,
            owners,
        );
        let mut sim =
            FedAvg::new(clients, FedAvgConfig { rounds: 3, seed: 5, ..Default::default() });
        sim.run(&mut attack);
        assert!((0..10).all(|u| attack.momentum.updates(u) == 3));
    }

    #[test]
    #[should_panic(expected = "one truth per target")]
    fn rejects_misaligned_truths() {
        let spec = GmfSpec::new(10, 4);
        let evaluator = ItemSetEvaluator::new(spec, vec![vec![1]], false);
        let _ = FlCia::new(CiaConfig::default(), evaluator, 5, vec![], vec![None]);
    }
}
