//! CIA in the gossip setting (Algorithm 2): adversaries attack with the
//! models delivered to the node(s) they control.
//!
//! * [`GlCiaCoalition`] — the one momentum attack ([`MomentumCia`]) seen from
//!   a single adversary or a colluding coalition. Colluders multicast
//!   received models to each other (line 14 of Algorithm 2), modeled as one
//!   momentum table shared by the coalition; this module adds only the
//!   membership filter ([`CoalitionVantage`]).
//! * [`GlCiaAllPlacements`] — every node simultaneously plays the adversary
//!   with its own train set as the target (the paper's Table III protocol).
//!   The momentum (Eq. 4) is applied to relevance *scores* instead of
//!   parameters, because per-(observer, sender) parameter momentum for every
//!   placement at once would need O(N²) model copies; the test below checks
//!   the two attacks agree.

use crate::evaluator::RelevanceEvaluator;
use crate::fl::{CiaConfig, MomentumCia};
use crate::metrics::{
    accuracy_of, coverage, top_k_users, AttackOutcome, AttackTracker, RoundPoint,
};
use cia_data::UserId;
use cia_gossip::{GossipObserver, GossipRoundStats};
use cia_models::parallel::par_map;
use cia_models::{LivenessEvent, SharedModel};
use cia_obs::Recorder;

/// The GL vantage: the membership mask (one entry per node) of the nodes
/// the adversary controls. The coalition observes every model delivered to a
/// member and prepares against the last delivered public parameters.
pub struct CoalitionVantage(Vec<bool>);

/// Algorithm 2 with parameter momentum, for one adversary node or a coalition
/// of colluders.
pub type GlCiaCoalition<E> = MomentumCia<E, CoalitionVantage>;

impl<E: RelevanceEvaluator> GlCiaCoalition<E> {
    /// Creates the attack. `members` lists the node ids the adversary
    /// controls (a single id for the lone-adversary setting).
    ///
    /// # Panics
    ///
    /// Panics on empty coalitions, member ids outside the population,
    /// misaligned truth tables, `k == 0`, `eval_every == 0` or `beta`
    /// outside `[0, 1]`.
    pub fn new(
        cfg: CiaConfig,
        evaluator: E,
        num_users: usize,
        members: &[u32],
        truths: Vec<Vec<UserId>>,
        owners: Vec<Option<UserId>>,
    ) -> Self {
        let vantage = CoalitionVantage(vec![false; num_users]);
        let mut attack = Self::with_vantage(cfg, evaluator, num_users, truths, owners, vantage);
        attack.set_members(members);
        attack
    }

    /// The node ids the coalition currently controls, ascending.
    pub fn members(&self) -> Vec<u32> {
        let members = &self.vantage.0;
        // cia-lint: allow(D05, i indexes the per-node member flags; coalition members are u32 node ids)
        members.iter().enumerate().filter_map(|(i, &m)| m.then_some(i as u32)).collect()
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
        let mask = &mut self.vantage.0;
        let n = mask.len();
        mask.fill(false);
        for &m in members {
            assert!(
                (m as usize) < n,
                "coalition member {m} is outside the population of {n} nodes"
            );
            mask[m as usize] = true;
        }
    }
}

impl<E: RelevanceEvaluator> GossipObserver for GlCiaCoalition<E> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        self.observe_liveness(event);
    }

    fn on_delivery(&mut self, _round: u64, receiver: UserId, model: &SharedModel) {
        if !self.vantage.0[receiver.index()] {
            return;
        }
        // Colluders never rank themselves... but they do observe each other's
        // honest models; keep those (they are genuine participants).
        // Reuses the reference buffer: no allocation per delivery.
        self.reference.get_or_insert_with(Vec::new).clone_from(&model.agg);
        self.observe(model);
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        self.end_round(stats.round);
    }
}

/// The all-placements sweep: node `u` attacks with its own train set as
/// `V_target`, for every `u` simultaneously, applying the momentum to
/// relevance scores (score-EMA; see the module docs).
pub struct GlCiaAllPlacements<E: RelevanceEvaluator> {
    cfg: CiaConfig,
    evaluator: E,
    /// Truth community per node, sorted by id, so counting hits is a binary
    /// search per prediction.
    truths: Vec<Vec<UserId>>,
    /// Dense score EMAs: `s[observer * n + sender]`, NaN = never seen.
    s_ema: Vec<f32>,
    num_users: usize,
    /// Latest wake mask (the live set feeding the online upper bound).
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
    /// Panics if `beta` is outside `[0, 1]`, the evaluator's target count
    /// differs from `num_users` or the truth table is misaligned.
    pub fn new(
        cfg: CiaConfig,
        evaluator: E,
        num_users: usize,
        mut truths: Vec<Vec<UserId>>,
    ) -> Self {
        assert!(cfg.k > 0, "community size must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        assert!((0.0..=1.0).contains(&cfg.beta), "beta must be in [0, 1]");
        assert_eq!(evaluator.num_targets(), num_users, "one target per node");
        assert_eq!(truths.len(), num_users, "one truth per node");
        truths.iter_mut().for_each(|t| t.sort_unstable());
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

    /// The relevance evaluator.
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Whether any model has reached any observer so far.
    pub fn observed_any(&self) -> bool {
        self.s_ema.iter().any(|s| !s.is_nan())
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
            let candidates = (0u32..).zip(row).filter(|(_, s)| !s.is_nan());
            let predicted = top_k_users(k, candidates.map(|(u, &s)| (s, u)));
            if predicted.is_empty() {
                return (0.0, None);
            }
            let (truth, seen) = (&self.truths[obs], |u: &UserId| !row[u.index()].is_nan());
            let online = coverage(truth, k, |u| seen(u) && self.live[u.index()]);
            let accuracy = accuracy_of(&predicted, k, |u| truth.binary_search(u).is_ok());
            (accuracy, Some((coverage(truth, k, seen), online)))
        });
        let accs: Vec<f64> = results.iter().map(|r| r.0).collect();
        let uppers: Vec<f64> = results.iter().filter_map(|r| r.1.map(|b| b.0)).collect();
        let uppers_online: Vec<f64> = results.iter().filter_map(|r| r.1.map(|b| b.1)).collect();
        self.tracker.record(round, &accs, &uppers, &uppers_online);
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
            // delivered model provides them, and they are trained only this
            // once (never refreshed for the rest of the run).
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
    use cia_models::{GmfClient, GmfSpec, Participant, SharingPolicy};

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
        let spec = GmfSpec::new(120, 8);
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                let mut c = spec.build_client(
                    UserId::from_index(u),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                );
                // Some tests snapshot a client directly, without a GossipSim
                // to draw its aggregate.
                c.draw_agg();
                c
            })
            .collect();
        let truths: Vec<Vec<UserId>> =
            (0..users).map(|u| gt.community_of(UserId::from_index(u)).to_vec()).collect();
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
                (0..s.users).map(|u| Some(UserId::from_index(u))).collect();
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
            (attack.momentum.seen().count(), attack.outcome())
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
            (0..s.users).map(|u| Some(UserId::from_index(u))).collect();
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
            // cia-lint: allow(D05, u indexes a test population of s.users nodes)
            .map(|(u, &v)| (v, u as u32))
            .collect();
        from_scores.sort_by(crate::metrics::rank_desc);
        let pred_scores: Vec<u32> = from_scores.into_iter().take(s.k).map(|(_, u)| u).collect();

        let momentum = &coal.momentum;
        let mut from_params: Vec<(f32, u32)> = momentum
            .seen()
            // cia-lint: allow(D05, u indexes a test population of s.users nodes)
            .map(|u| (u as u32, momentum.get(u).unwrap()))
            .filter(|(u, _)| *u != adversary)
            .map(|(u, (emb, agg))| {
                (coal.evaluator().relevance_one(emb, agg, adversary as usize), u)
            })
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
            (0..s.users).map(|u| Some(UserId::from_index(u))).collect();
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
            (0..s.users).map(|u| Some(UserId::from_index(u))).collect();
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
        assert_eq!(coal.momentum.seen().count(), 3);
        // …and survive the relocation: retained member 0 leaves, 3 and 9
        // take over, the sender-keyed momentum table is untouched.
        coal.set_members(&[3, 9]);
        assert_eq!(coal.members(), vec![3, 9]);
        assert_eq!(coal.momentum.seen().count(), 3, "relocation must not drop momentum state");
        // Deliveries to the old placement are no longer observed; the new
        // one is.
        let snap = s.clients[5].snapshot(1);
        coal.on_delivery(1, UserId::new(0), &snap);
        assert_eq!(coal.momentum.seen().count(), 3);
        coal.on_delivery(1, UserId::new(9), &snap);
        assert_eq!(coal.momentum.seen().count(), 4);
    }

    #[test]
    fn unseen_observer_records_zero() {
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners: Vec<Option<UserId>> =
            (0..s.users).map(|u| Some(UserId::from_index(u))).collect();
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

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn coalition_rejects_beta_outside_unit_interval() {
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners = vec![None; s.users];
        let cfg = CiaConfig { k: 2, beta: 1.5, eval_every: 1, seed: 0 };
        let _ = GlCiaCoalition::new(cfg, evaluator, s.users, &[0], s.truths.clone(), owners);
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn all_placements_rejects_beta_outside_unit_interval() {
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let cfg = CiaConfig { k: 2, beta: 1.5, eval_every: 1, seed: 0 };
        let _ = GlCiaAllPlacements::new(cfg, evaluator, s.users, s.truths.clone());
    }

    #[test]
    #[should_panic(expected = "coalition member 12 is outside the population of 12 nodes")]
    fn coalition_rejects_member_outside_population() {
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners = vec![None; s.users];
        let cfg = CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 };
        let mut coal = GlCiaCoalition::new(cfg, evaluator, s.users, &[0], s.truths.clone(), owners);
        coal.set_members(&[3, 12]);
    }
}
