//! CIA in the gossip setting (Algorithm 2): adversaries attack with the
//! models delivered to the node(s) they control.
//!
//! Two engines are provided:
//!
//! * [`GlCiaCoalition`] — paper-exact parameter momentum for a single
//!   adversary or a colluding coalition. Colluders multicast received models
//!   to each other (line 14 of Algorithm 2), modeled as one momentum table
//!   shared by the coalition.
//! * [`GlCiaAllPlacements`] — every node simultaneously plays the adversary
//!   with its own train set as the target (the paper's Table III protocol).
//!   To avoid O(N²) model copies the momentum (Eq. 4) is applied to
//!   relevance *scores* instead of parameters; `DESIGN.md` §3 documents the
//!   substitution and the test below checks the two engines agree.

use crate::evaluator::RelevanceEvaluator;
use crate::fl::{CiaAttackState, CiaConfig};
use crate::metrics::{community_accuracy, AttackOutcome, AttackTracker, RoundPoint};
use crate::momentum::MomentumState;
use cia_data::UserId;
use cia_gossip::{GossipObserver, GossipRoundStats};
use cia_models::parallel::{par_chunks_mut, par_map};
use cia_models::{Checkpointable, LivenessEvent, SharedModel};
use cia_obs::Recorder;

/// Algorithm 2 with parameter momentum, for one adversary node or a coalition
/// of colluders.
pub struct GlCiaCoalition<E: RelevanceEvaluator> {
    cfg: CiaConfig,
    evaluator: E,
    truths: Vec<Vec<UserId>>,
    owners: Vec<Option<UserId>>,
    members: Vec<bool>,
    /// Shared momentum table, a dense slab indexed by sender id (`None` =
    /// sender never observed). The coalition multicasts received models, so
    /// all colluders share one view.
    momentum: Vec<Option<MomentumState>>,
    /// Flat `num_users × num_targets` relevance matrix reused across
    /// evaluation rounds; rows of unseen senders stay untouched.
    rel: Vec<f32>,
    /// The most recent wake mask delivered through
    /// [`GossipObserver::on_liveness`] — the dynamics layer's live set,
    /// feeding the per-round online upper bound. All-true until a mask
    /// arrives.
    live: Vec<bool>,
    tracker: AttackTracker,
    last_agg: Option<Vec<f32>>,
    prepared: bool,
    /// Metrics sink for the attack-phase spans (prepare/score/rank/update);
    /// a detached default until the runner wires in the shared recorder.
    obs: Recorder,
}

impl<E: RelevanceEvaluator> GlCiaCoalition<E> {
    /// Creates the attack. `members` lists the node ids the adversary
    /// controls (a single id for the lone-adversary setting).
    ///
    /// # Panics
    ///
    /// Panics on empty coalitions, misaligned truth tables, or `k == 0`.
    pub fn new(
        cfg: CiaConfig,
        evaluator: E,
        num_users: usize,
        members: &[u32],
        truths: Vec<Vec<UserId>>,
        owners: Vec<Option<UserId>>,
    ) -> Self {
        assert!(cfg.k > 0, "community size must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        assert!(!members.is_empty(), "coalition needs at least one member");
        assert_eq!(truths.len(), evaluator.num_targets(), "one truth per target");
        assert_eq!(owners.len(), evaluator.num_targets(), "one owner entry per target");
        let mut mask = vec![false; num_users];
        for &m in members {
            mask[m as usize] = true;
        }
        let candidates = num_users.saturating_sub(usize::from(owners.iter().any(Option::is_some)));
        GlCiaCoalition {
            tracker: AttackTracker::new(cfg.k, candidates),
            rel: vec![0.0; num_users * evaluator.num_targets()],
            live: vec![true; num_users],
            cfg,
            evaluator,
            truths,
            owners,
            members: mask,
            momentum: (0..num_users).map(|_| None).collect(),
            last_agg: None,
            prepared: false,
            obs: Recorder::new(),
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

    /// The evaluated per-round history so far.
    pub fn history(&self) -> &[RoundPoint] {
        self.tracker.history()
    }

    /// The relevance evaluator (checkpoint access to evaluator-side state).
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Mutable access to the relevance evaluator (checkpoint resume).
    pub fn evaluator_mut(&mut self) -> &mut E {
        &mut self.evaluator
    }

    /// Number of distinct senders observed so far.
    pub fn senders_seen(&self) -> usize {
        self.momentum.iter().flatten().count()
    }

    /// The node ids the coalition currently controls, ascending.
    pub fn members(&self) -> Vec<u32> {
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        self.members.iter().enumerate().filter_map(|(i, &m)| m.then_some(i as u32)).collect()
    }

    /// Reassigns the coalition's controlled node ids mid-run (adaptive sybil
    /// placement). Only the delivery filter changes: the sender-keyed
    /// momentum table, the tracker history and the evaluator state all
    /// survive, so members retained across the relocation keep every
    /// observation and the score EMAs never reset.
    ///
    /// # Panics
    ///
    /// Panics on an empty membership or an out-of-range node id.
    pub fn set_members(&mut self, members: &[u32]) {
        assert!(!members.is_empty(), "coalition needs at least one member");
        self.members.iter_mut().for_each(|m| *m = false);
        for &m in members {
            self.members[m as usize] = true;
        }
    }

    fn evaluate(&mut self, round: u64) {
        if self.momentum.iter().all(Option::is_none) {
            self.tracker.record(round, &[0.0], &[0.0]);
            return;
        }
        let obs = self.obs.clone();
        let live = &self.live;
        if let Some(agg) = &self.last_agg {
            if !self.prepared || round.is_multiple_of((self.cfg.eval_every * 4).max(1)) {
                let _prepare = obs.span("attack_prepare");
                self.evaluator.prepare(agg, self.cfg.seed ^ round);
                self.prepared = true;
            }
        }
        let num_targets = self.evaluator.num_targets();
        if num_targets > 0 {
            let _score = obs.span("attack_score");
            let (rel, momentum, evaluator) = (&mut self.rel, &self.momentum, &self.evaluator);
            par_chunks_mut(rel, num_targets, |sender, row| {
                if let Some(m) = &momentum[sender] {
                    evaluator.relevance_all(m.emb(), m.agg(), row);
                }
            });
        }
        let _rank = obs.span("attack_rank");
        let mut accs = Vec::with_capacity(num_targets);
        let mut uppers = Vec::with_capacity(num_targets);
        let mut uppers_online = Vec::with_capacity(num_targets);
        for t in 0..num_targets {
            let mut scored: Vec<(f32, u32)> = self
                .momentum
                .iter()
                .enumerate()
                .filter_map(|(sender, m)| {
                    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                    if m.is_none() || self.owners[t] == Some(UserId::new(sender as u32)) {
                        None
                    } else {
                        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                        Some((self.rel[sender * num_targets + t], sender as u32))
                    }
                })
                .collect();
            scored.sort_by(crate::metrics::rank_desc);
            let predicted: Vec<UserId> =
                scored.into_iter().take(self.cfg.k).map(|(_, u)| UserId::new(u)).collect();
            accs.push(community_accuracy(&predicted, &self.truths[t], self.cfg.k));
            let seen = self.truths[t].iter().filter(|u| self.momentum[u.index()].is_some()).count();
            let seen_live = self.truths[t]
                .iter()
                .filter(|u| self.momentum[u.index()].is_some() && live[u.index()])
                .count();
            uppers.push(seen as f64 / self.cfg.k as f64);
            uppers_online.push(seen_live as f64 / self.cfg.k as f64);
        }
        self.tracker.record_with_online(round, &accs, &uppers, &uppers_online);
    }
}

/// Snapshot/restore of the coalition's mutable state for checkpoint/resume
/// (`last_global` carries the last observed delivery's parameters). Restoring
/// panics if the momentum table is not aligned with the participants.
impl<E: RelevanceEvaluator> Checkpointable for GlCiaCoalition<E> {
    type State = CiaAttackState;

    fn export_state(&self) -> CiaAttackState {
        CiaAttackState {
            momentum: self.momentum.clone(),
            history: self.tracker.history().to_vec(),
            last_global: self.last_agg.clone(),
            prepared: self.prepared,
        }
    }

    fn restore_state(&mut self, state: CiaAttackState) {
        assert_eq!(state.momentum.len(), self.momentum.len(), "momentum table size");
        self.momentum = state.momentum;
        self.tracker.restore_history(state.history);
        self.last_agg = state.last_global;
        self.prepared = state.prepared;
    }
}

impl<E: RelevanceEvaluator> GossipObserver for GlCiaCoalition<E> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { mask, .. } = event {
            // One entry per node; mismatches must panic, not truncate.
            self.live.copy_from_slice(mask);
        }
    }

    fn on_delivery(&mut self, _round: u64, receiver: UserId, model: &SharedModel) {
        if !self.members[receiver.index()] {
            return;
        }
        let _update = self.obs.span("attack_update");
        // Colluders never rank themselves... but they do observe each other's
        // honest models; keep those (they are genuine participants).
        self.last_agg = Some(model.agg.clone());
        match &mut self.momentum[model.owner.index()] {
            Some(state) => state.update(self.cfg.beta, model),
            slot @ None => *slot = Some(MomentumState::from_snapshot(model)),
        }
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        if (stats.round + 1).is_multiple_of(self.cfg.eval_every) {
            self.evaluate(stats.round);
        }
    }
}

/// Serializable snapshot of an all-placements sweep's mutable state
/// (checkpoint/resume counterpart of [`CiaAttackState`]).
#[derive(Debug, Clone)]
pub struct PlacementsState {
    /// Dense score EMAs (`NaN` = never seen).
    pub s_ema: Vec<f32>,
    /// Evaluated history recorded so far.
    pub history: Vec<RoundPoint>,
    /// Whether the evaluator has been prepared at least once.
    pub prepared: bool,
}

/// The all-placements sweep: node `u` attacks with its own train set as
/// `V_target`, for every `u` simultaneously, applying the momentum to
/// relevance scores (score-EMA; see the module docs).
pub struct GlCiaAllPlacements<E: RelevanceEvaluator> {
    cfg: CiaConfig,
    evaluator: E,
    truths: Vec<Vec<UserId>>,
    /// Dense score EMAs: `s[observer * n + sender]`, NaN = never seen.
    s_ema: Vec<f32>,
    num_users: usize,
    /// Latest wake mask (see [`GlCiaCoalition`]'s `live` field).
    live: Vec<bool>,
    tracker: AttackTracker,
    prepared: bool,
    /// Metrics sink for the attack-phase spans (prepare/rank/update); a
    /// detached default until the runner wires in the shared recorder.
    obs: Recorder,
}

impl<E: RelevanceEvaluator> GlCiaAllPlacements<E> {
    /// Creates the sweep; the evaluator must register exactly one target per
    /// node (node `u`'s target is its own train set).
    ///
    /// # Panics
    ///
    /// Panics if the evaluator's target count differs from `num_users` or
    /// the truth table is misaligned.
    pub fn new(cfg: CiaConfig, evaluator: E, num_users: usize, truths: Vec<Vec<UserId>>) -> Self {
        assert!(cfg.k > 0, "community size must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        assert_eq!(evaluator.num_targets(), num_users, "one target per node");
        assert_eq!(truths.len(), num_users, "one truth per node");
        GlCiaAllPlacements {
            tracker: AttackTracker::new(cfg.k, num_users.saturating_sub(1)),
            cfg,
            evaluator,
            truths,
            s_ema: vec![f32::NAN; num_users * num_users],
            num_users,
            live: vec![true; num_users],
            prepared: false,
            obs: Recorder::new(),
        }
    }

    /// Routes the sweep's spans into a shared recorder (the default sink is
    /// detached). Clones are cheap; all clones share one registry.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The attack summary (AAC averaged over all adversary placements).
    pub fn outcome(&self) -> AttackOutcome {
        self.tracker.outcome()
    }

    /// The evaluated per-round history so far.
    pub fn history(&self) -> &[RoundPoint] {
        self.tracker.history()
    }

    /// The relevance evaluator (checkpoint access to evaluator-side state).
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Mutable access to the relevance evaluator (checkpoint resume).
    pub fn evaluator_mut(&mut self) -> &mut E {
        &mut self.evaluator
    }

    fn evaluate(&mut self, round: u64) {
        let _rank = self.obs.span("attack_rank");
        let n = self.num_users;
        let k = self.cfg.k;
        // Accuracy covers every placement (the paper's AAC); the coverage
        // bounds cover only observers with at least one observation — an
        // observer that never heard anything (offline the whole window under
        // churn, say) has no vantage point, and averaging its zero into the
        // bound would conflate "offline" with "zero coverage".
        let results: Vec<(f64, Option<(f64, f64)>)> = par_map(n, |obs| {
            let row = &self.s_ema[obs * n..(obs + 1) * n];
            let mut scored: Vec<(f32, u32)> = row
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_nan())
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                .map(|(u, &s)| (s, u as u32))
                .collect();
            if scored.is_empty() {
                return (0.0, None);
            }
            scored.sort_by(crate::metrics::rank_desc);
            let predicted: Vec<UserId> =
                scored.into_iter().take(k).map(|(_, u)| UserId::new(u)).collect();
            let acc = community_accuracy(&predicted, &self.truths[obs], k);
            let seen = self.truths[obs].iter().filter(|u| !row[u.index()].is_nan()).count();
            let seen_live = self.truths[obs]
                .iter()
                .filter(|u| !row[u.index()].is_nan() && self.live[u.index()])
                .count();
            (acc, Some((seen as f64 / k as f64, seen_live as f64 / k as f64)))
        });
        let accs: Vec<f64> = results.iter().map(|r| r.0).collect();
        let uppers: Vec<f64> = results.iter().filter_map(|r| r.1.map(|b| b.0)).collect();
        let uppers_online: Vec<f64> = results.iter().filter_map(|r| r.1.map(|b| b.1)).collect();
        self.tracker.record_with_online(round, &accs, &uppers, &uppers_online);
    }
}

/// Snapshot/restore of the sweep's mutable state for checkpoint/resume.
/// Restoring panics if the score table is not aligned with the participants.
impl<E: RelevanceEvaluator> Checkpointable for GlCiaAllPlacements<E> {
    type State = PlacementsState;

    fn export_state(&self) -> PlacementsState {
        PlacementsState {
            s_ema: self.s_ema.clone(),
            history: self.tracker.history().to_vec(),
            prepared: self.prepared,
        }
    }

    fn restore_state(&mut self, state: PlacementsState) {
        assert_eq!(state.s_ema.len(), self.s_ema.len(), "score table size");
        self.s_ema = state.s_ema;
        self.tracker.restore_history(state.history);
        self.prepared = state.prepared;
    }
}

impl<E: RelevanceEvaluator> GossipObserver for GlCiaAllPlacements<E> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { mask, .. } = event {
            // One entry per node; mismatches must panic, not truncate.
            self.live.copy_from_slice(mask);
        }
    }

    fn on_delivery(&mut self, _round: u64, receiver: UserId, model: &SharedModel) {
        let _update = self.obs.span("attack_update");
        if !self.prepared {
            // Share-less fictive embeddings need public parameters; the first
            // delivered model provides them (refreshed lazily afterwards).
            self.evaluator.prepare(&model.agg, self.cfg.seed);
            self.prepared = true;
        }
        let obs = receiver.index();
        let y = self.evaluator.relevance_one(model.owner_emb.as_deref(), &model.agg, obs);
        let slot = &mut self.s_ema[obs * self.num_users + model.owner.index()];
        if slot.is_nan() {
            *slot = y;
        } else {
            *slot = self.cfg.beta * *slot + (1.0 - self.cfg.beta) * y;
        }
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        if (stats.round + 1).is_multiple_of(self.cfg.eval_every) {
            self.evaluate(stats.round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ItemSetEvaluator;
    use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig};
    use cia_gossip::{GossipConfig, GossipSim};
    use cia_models::{GmfClient, GmfHyper, GmfSpec, SharingPolicy};

    struct Setup {
        clients: Vec<GmfClient>,
        spec: GmfSpec,
        train_sets: Vec<Vec<u32>>,
        truths: Vec<Vec<UserId>>,
        users: usize,
        k: usize,
    }

    fn setup(users: usize, k: usize, seed: u64) -> Setup {
        let data = SyntheticConfig::builder()
            .users(users)
            .items(120)
            .communities(6)
            .interactions_per_user(14)
            .seed(seed)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 3).unwrap();
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let spec = GmfSpec::new(120, 8, GmfHyper::default());
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(
                    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                    UserId::new(u as u32),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect();
        let truths: Vec<Vec<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..users).map(|u| gt.community_of(UserId::new(u as u32)).to_vec()).collect();
        Setup { clients, spec, train_sets: split.train_sets().to_vec(), truths, users, k }
    }

    #[test]
    fn all_placements_beats_random_on_planted_communities() {
        let s = setup(36, 5, 11);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut attack = GlCiaAllPlacements::new(
            CiaConfig { k: s.k, beta: 0.9, eval_every: 5, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        let mut sim =
            GossipSim::new(s.clients, GossipConfig { rounds: 40, seed: 3, ..Default::default() });
        sim.run(&mut attack);
        let out = attack.outcome();
        assert!(
            out.max_aac > 1.5 * out.random_bound,
            "GL attack did not beat random: {} vs {}",
            out.max_aac,
            out.random_bound
        );
        // Gossip adversaries see only part of the network early on.
        assert!(out.upper_bound <= 1.0);
    }

    #[test]
    fn coalition_sees_more_senders_than_lone_adversary() {
        let s = setup(30, 4, 5);
        let make = |members: Vec<u32>, clients: Vec<GmfClient>| {
            let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
            let owners: Vec<Option<UserId>> =
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                (0..s.users).map(|u| Some(UserId::new(u as u32))).collect();
            let mut attack = GlCiaCoalition::new(
                CiaConfig { k: s.k, beta: 0.9, eval_every: 5, seed: 0 },
                evaluator,
                s.users,
                &members,
                s.truths.clone(),
                owners,
            );
            let mut sim =
                GossipSim::new(clients, GossipConfig { rounds: 25, seed: 7, ..Default::default() });
            sim.run(&mut attack);
            (attack.senders_seen(), attack.outcome())
        };
        let (seen_single, out_single) = make(vec![0], setup(30, 4, 5).clients);
        let (seen_coal, out_coal) = make(vec![0, 7, 14, 21, 28], s.clients);
        assert!(
            seen_coal > seen_single,
            "coalition saw {seen_coal} senders vs single {seen_single}"
        );
        assert!(out_coal.upper_bound >= out_single.upper_bound);
    }

    #[test]
    fn score_and_param_momentum_agree_on_rankings() {
        // With beta = 0 both engines rank by the latest delivered model, so
        // a lone adversary's coalition ranking must match the all-placements
        // row for that observer.
        let s = setup(24, 4, 9);
        let adversary = 3u32;

        let eval_all = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: s.k, beta: 0.0, eval_every: 1000, seed: 0 },
            eval_all,
            s.users,
            s.truths.clone(),
        );
        let eval_coal = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners: Vec<Option<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..s.users).map(|u| Some(UserId::new(u as u32))).collect();
        let mut coal = GlCiaCoalition::new(
            CiaConfig { k: s.k, beta: 0.0, eval_every: 1000, seed: 0 },
            eval_coal,
            s.users,
            &[adversary],
            s.truths.clone(),
            owners,
        );

        // Drive both with the same simulated run.
        struct Tee<'a, A: GossipObserver, B: GossipObserver>(&'a mut A, &'a mut B);
        impl<A: GossipObserver, B: GossipObserver> GossipObserver for Tee<'_, A, B> {
            fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
                self.0.on_delivery(round, receiver, model);
                self.1.on_delivery(round, receiver, model);
            }
            fn on_round_end(&mut self, stats: &GossipRoundStats) {
                self.0.on_round_end(stats);
                self.1.on_round_end(stats);
            }
        }
        let mut sim =
            GossipSim::new(s.clients, GossipConfig { rounds: 12, seed: 13, ..Default::default() });
        {
            let mut tee = Tee(&mut all, &mut coal);
            sim.run(&mut tee);
        }

        // Compare the adversary's own-target ranking from both engines.
        let n = s.users;
        let row = &all.s_ema[adversary as usize * n..(adversary as usize + 1) * n];
        let mut from_scores: Vec<(f32, u32)> = row
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            .map(|(u, &v)| (v, u as u32))
            .collect();
        from_scores.sort_by(crate::metrics::rank_desc);
        let pred_scores: Vec<u32> = from_scores.into_iter().take(s.k).map(|(_, u)| u).collect();

        let mut from_params: Vec<(f32, u32)> = coal
            .momentum
            .iter()
            .enumerate()
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            .filter_map(|(u, m)| m.as_ref().map(|m| (u as u32, m)))
            .filter(|(u, _)| *u != adversary)
            .map(|(u, m)| (coal.evaluator.relevance_one(m.emb(), m.agg(), adversary as usize), u))
            .collect();
        from_params.sort_by(crate::metrics::rank_desc);
        let pred_params: Vec<u32> = from_params.into_iter().take(s.k).map(|(_, u)| u).collect();

        assert_eq!(pred_scores, pred_params);
    }

    #[test]
    fn bound_excludes_observers_that_saw_nothing() {
        // Regression: the coverage bound used to average in a zero for every
        // observer with an empty row, so one active adversary among n nodes
        // reported a bound deflated by a factor of n under churn. Only
        // observers with at least one observation may contribute.
        use cia_models::Participant;
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        // Observer 0 hears from every node; everyone else hears nothing.
        for sender in 1..s.users {
            let snap = s.clients[sender].snapshot(0);
            all.on_delivery(0, UserId::new(0), &snap);
        }
        all.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 12,
            deliveries: 11,
            mean_loss: None,
            bytes_materialized: 0,
        });
        let p = &all.history()[0];
        // Observer 0 has seen 11 of 12 users — its own-community coverage is
        // high; a mean over all 12 observers would sit at or below 1/12th of
        // the per-observer maximum.
        assert!(p.upper_bound > 0.4, "bound {} still deflated by empty observers", p.upper_bound);
        assert_eq!(p.upper_bound_online, p.upper_bound, "static population");
    }

    #[test]
    fn online_bound_never_exceeds_static_bound() {
        let s = setup(24, 4, 9);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: s.k, beta: 0.9, eval_every: 2, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        // Half the population is asleep each round, alternating by parity so
        // everyone still gets observed eventually; the wake mask is routed
        // through the attack the way the dynamics layer does.
        struct HalfAsleep<'a, E: RelevanceEvaluator>(&'a mut GlCiaAllPlacements<E>);
        impl<E: RelevanceEvaluator> GossipObserver for HalfAsleep<'_, E> {
            fn on_liveness(&mut self, event: LivenessEvent<'_>) {
                if let LivenessEvent::ActingSet { round, mask } = event {
                    for (u, m) in mask.iter_mut().enumerate() {
                        if u % 2 == (round % 2) as usize {
                            *m = false;
                        }
                    }
                    self.0.on_liveness(LivenessEvent::ActingSet { round, mask });
                }
            }
            fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
                self.0.on_delivery(round, receiver, model);
            }
            fn on_round_end(&mut self, stats: &GossipRoundStats) {
                self.0.on_round_end(stats);
            }
        }
        let mut sim =
            GossipSim::new(s.clients, GossipConfig { rounds: 16, seed: 5, ..Default::default() });
        {
            let mut obs = HalfAsleep(&mut all);
            sim.run(&mut obs);
        }
        let history = all.history();
        assert!(!history.is_empty());
        for p in history {
            assert!(
                p.upper_bound_online <= p.upper_bound + 1e-12,
                "round {}: online {} > static {}",
                p.round,
                p.upper_bound_online,
                p.upper_bound
            );
        }
        // With half the population permanently asleep the two bounds must
        // actually separate by the end.
        let last = history.last().unwrap();
        assert!(last.upper_bound_online < last.upper_bound);
    }

    #[test]
    fn nan_scores_rank_last_instead_of_panicking() {
        // A DP-destroyed model can carry NaN parameters, making every
        // relevance score NaN. Ranking must route through the NaN-mapping
        // `metrics::rank_desc` (a bare `partial_cmp().unwrap()` panics) and
        // sink the destroyed sender below every finite-scored one.
        use cia_models::Participant;
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners: Vec<Option<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..s.users).map(|u| Some(UserId::new(u as u32))).collect();
        let mut coal = GlCiaCoalition::new(
            CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 },
            evaluator,
            s.users,
            &[0],
            s.truths.clone(),
            owners,
        );
        // Healthy senders 1..4, then a destroyed model from sender 5.
        for sender in 1..4 {
            let snap = s.clients[sender].snapshot(0);
            coal.on_delivery(0, UserId::new(0), &snap);
        }
        let mut destroyed = s.clients[5].snapshot(0);
        destroyed.agg.fill(f32::NAN);
        if let Some(emb) = &mut destroyed.owner_emb {
            emb.fill(f32::NAN);
        }
        coal.on_delivery(0, UserId::new(0), &destroyed);
        // `last_agg` now carries NaN parameters too; evaluation must still
        // complete (no panic) and report finite bounds.
        coal.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 12,
            deliveries: 4,
            mean_loss: None,
            bytes_materialized: 0,
        });
        let p = &coal.history()[0];
        assert!(p.upper_bound.is_finite());
        // The all-placements engine must tolerate NaN score EMAs the same
        // way.
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        for sender in 1..6 {
            let snap = s.clients[sender].snapshot(0);
            all.on_delivery(0, UserId::new(0), &snap);
        }
        all.on_delivery(0, UserId::new(0), &destroyed);
        all.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 12,
            deliveries: 6,
            mean_loss: None,
            bytes_materialized: 0,
        });
        assert!(!all.history().is_empty());
    }

    #[test]
    fn set_members_moves_the_delivery_filter_but_keeps_momentum() {
        use cia_models::Participant;
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners: Vec<Option<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..s.users).map(|u| Some(UserId::new(u as u32))).collect();
        let mut coal = GlCiaCoalition::new(
            CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 },
            evaluator,
            s.users,
            &[0, 6],
            s.truths.clone(),
            owners,
        );
        assert_eq!(coal.members(), vec![0, 6]);
        // Observations land at the initial placement…
        for sender in 1..4 {
            let snap = s.clients[sender].snapshot(0);
            coal.on_delivery(0, UserId::new(0), &snap);
        }
        assert_eq!(coal.senders_seen(), 3);
        // …and survive the relocation: retained member 0 leaves, 3 and 9
        // take over, the sender-keyed momentum table is untouched.
        coal.set_members(&[3, 9]);
        assert_eq!(coal.members(), vec![3, 9]);
        assert_eq!(coal.senders_seen(), 3, "relocation must not drop momentum state");
        // Deliveries to the old placement are no longer observed; the new
        // one is.
        let snap = s.clients[5].snapshot(1);
        coal.on_delivery(1, UserId::new(0), &snap);
        assert_eq!(coal.senders_seen(), 3);
        coal.on_delivery(1, UserId::new(9), &snap);
        assert_eq!(coal.senders_seen(), 4);
    }

    #[test]
    fn unseen_observer_records_zero() {
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners: Vec<Option<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..s.users).map(|u| Some(UserId::new(u as u32))).collect();
        let mut coal = GlCiaCoalition::new(
            CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 },
            evaluator,
            s.users,
            &[0],
            s.truths.clone(),
            owners,
        );
        // No deliveries at all: evaluation must not panic and records zero.
        coal.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 0,
            deliveries: 0,
            mean_loss: None,
            bytes_materialized: 0,
        });
        let out = coal.outcome();
        assert_eq!(out.max_aac, 0.0);
    }
}
