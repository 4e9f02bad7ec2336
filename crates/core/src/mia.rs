//! The entropy-based membership-inference proxy (§VIII-C1).
//!
//! A low-cost MIA [23] classifies an item as a training member of a model
//! when the entropy of the model's prediction falls below a threshold ρ
//! (confident predictions ⇒ likely memorized). Used as a community-inference
//! proxy, the adversary ranks users by how many target items the MIA declares
//! members of their training set — the paper shows this is strictly weaker
//! than CIA (Table VIII).

use crate::fl::CiaConfig;
use crate::metrics::{community_accuracy, coverage, top_k_users, AttackOutcome, AttackTracker};
use cia_data::UserId;
use cia_federated::{RoundObserver, RoundStats};
use cia_models::parallel::par_map;
use cia_models::{MomentumTable, RelevanceScorer, SharedModel};

/// Binary prediction entropy `−p·ln p − (1−p)·ln(1−p)` (nats; max ln 2).
///
/// ```
/// use cia_core::membership_entropy;
/// assert!(membership_entropy(0.5) > membership_entropy(0.99));
/// assert!(membership_entropy(0.0) == 0.0);
/// ```
pub fn membership_entropy(p: f32) -> f32 {
    let p = p.clamp(0.0, 1.0);
    if p == 0.0 || p == 1.0 {
        return 0.0;
    }
    -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
}

/// MIA proxy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiaConfig {
    /// The CIA-compatible parameters (community size, momentum, cadence).
    pub cia: CiaConfig,
    /// Entropy threshold ρ: items with prediction entropy ≤ ρ are classified
    /// as training members.
    pub rho: f32,
}

/// Community inference via entropy-threshold membership inference, as a
/// federated-server observer (the paper evaluates the proxy in FL, Table
/// VIII).
pub struct MiaCommunityAttack<S: RelevanceScorer> {
    cfg: MiaConfig,
    scorer: S,
    targets: Vec<Vec<u32>>,
    truths: Vec<Vec<UserId>>,
    owners: Vec<Option<UserId>>,
    /// Actual train sets, used only to measure the MIA's own membership
    /// precision (reported next to the community accuracy in Table VIII).
    train_sets: Vec<Vec<u32>>,
    momentum: MomentumTable,
    tracker: AttackTracker,
    precision_history: Vec<(u64, f64)>,
}

impl<S: RelevanceScorer> MiaCommunityAttack<S> {
    /// Creates the proxy attack. Inputs mirror [`crate::FlCia::new`] plus the
    /// real train sets for precision measurement.
    ///
    /// # Panics
    ///
    /// Panics on misaligned tables, `k == 0`, `eval_every == 0` or `beta`
    /// outside `[0, 1]`.
    pub fn new(
        cfg: MiaConfig,
        scorer: S,
        targets: Vec<Vec<u32>>,
        num_users: usize,
        truths: Vec<Vec<UserId>>,
        owners: Vec<Option<UserId>>,
        train_sets: Vec<Vec<u32>>,
    ) -> Self {
        assert!(cfg.cia.k > 0, "community size must be positive");
        assert!(cfg.cia.eval_every > 0, "eval_every must be positive");
        assert!((0.0..=1.0).contains(&cfg.cia.beta), "beta must be in [0, 1]");
        assert_eq!(truths.len(), targets.len(), "one truth per target");
        assert_eq!(owners.len(), targets.len(), "one owner entry per target");
        assert_eq!(train_sets.len(), num_users, "one train set per user");
        let candidates = num_users.saturating_sub(usize::from(owners.iter().any(Option::is_some)));
        MiaCommunityAttack {
            tracker: AttackTracker::new(cfg.cia.k, candidates),
            cfg,
            scorer,
            targets,
            truths,
            owners,
            train_sets,
            momentum: MomentumTable::new(num_users),
            precision_history: Vec::new(),
        }
    }

    /// The attack summary.
    pub fn outcome(&self) -> AttackOutcome {
        self.tracker.outcome()
    }

    /// The MIA's membership precision at the round where Max AAC was
    /// achieved.
    pub fn precision_at_max(&self) -> f64 {
        let max_round = self.tracker.outcome().max_round;
        self.precision_history.iter().find(|(r, _)| *r == max_round).map(|(_, p)| *p).unwrap_or(0.0)
    }

    fn evaluate(&mut self, round: u64) {
        let rho = self.cfg.rho;
        let num_items = self.scorer.num_items() as usize;
        // Per user: membership bitmap over the catalog from the momentum
        // model, then per-target member counts.
        let member_frac: Vec<Option<(Vec<f32>, f64)>> = par_map(self.momentum.users(), |u| {
            let (emb, agg) = self.momentum.get(u)?;
            let mut scores = vec![0.0f32; num_items];
            self.scorer.score_item_range(emb, agg, 0, &mut scores);
            // The entropy rule needs calibrated probabilities; scorers emit
            // raw relevance (GMF: pre-sigmoid logits), so calibrate here.
            // Confident-positive rule: low entropy alone cannot separate a
            // memorized positive from a confident negative, so membership
            // additionally requires p > 1/2.
            let member: Vec<bool> = scores
                .iter()
                .map(|&z| {
                    let p = cia_models::params::sigmoid(z);
                    p > 0.5 && membership_entropy(p) <= rho
                })
                .collect();
            // Per-target fraction of items declared members.
            let fracs: Vec<f32> = self
                .targets
                .iter()
                .map(|t| {
                    if t.is_empty() {
                        0.0
                    } else {
                        t.iter().filter(|&&i| member[i as usize]).count() as f32 / t.len() as f32
                    }
                })
                .collect();
            // Membership precision on this user's own model: positives = own
            // train items, negatives = a deterministic stride probe.
            let train = &self.train_sets[u];
            let tp = train.iter().filter(|&&i| member[i as usize]).count();
            let stride = (num_items / train.len().max(1)).max(1);
            let mut fp = 0usize;
            let mut negs = 0usize;
            for i in (0..num_items).step_by(stride) {
                // cia-lint: allow(D05, i < num_items, and item ids are u32)
                if train.binary_search(&(i as u32)).is_err() {
                    negs += 1;
                    if member[i] {
                        fp += 1;
                    }
                }
                if negs >= train.len() {
                    break;
                }
            }
            let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
            Some((fracs, precision))
        });

        let k = self.cfg.cia.k;
        let mut accs = Vec::with_capacity(self.targets.len());
        let mut uppers = Vec::with_capacity(self.targets.len());
        for (t, truth) in self.truths.iter().enumerate() {
            let candidates = (0u32..)
                .zip(&member_frac)
                .filter(|&(id, _)| self.owners[t] != Some(UserId::new(id)))
                .filter_map(|(id, r)| r.as_ref().map(|(fracs, _)| (fracs[t], id)));
            accs.push(community_accuracy(&top_k_users(k, candidates), truth, k));
            uppers.push(coverage(truth, k, |u| self.momentum.updates(u.index()) > 0));
        }
        self.tracker.record(round, &accs, &uppers, &uppers);

        let precisions: Vec<f64> = member_frac.iter().flatten().map(|(_, p)| *p).collect();
        let mean_precision = if precisions.is_empty() {
            0.0
        } else {
            // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
            precisions.iter().sum::<f64>() / precisions.len() as f64
        };
        self.precision_history.push((round, mean_precision));
    }
}

impl<S: RelevanceScorer> RoundObserver for MiaCommunityAttack<S> {
    fn on_client_model(&mut self, model: &SharedModel) {
        let (u, emb) = (model.owner.index(), model.owner_emb.as_deref());
        self.momentum.observe(u, self.cfg.cia.beta, emb, &model.agg);
    }

    fn on_round_end(&mut self, stats: &RoundStats) {
        if (stats.round + 1).is_multiple_of(self.cfg.cia.eval_every) {
            self.evaluate(stats.round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig};
    use cia_federated::{FedAvg, FedAvgConfig};
    use cia_models::{GmfSpec, SharingPolicy};

    #[test]
    fn entropy_properties() {
        assert!((membership_entropy(0.5) - std::f32::consts::LN_2).abs() < 1e-6);
        assert!(membership_entropy(0.9) < membership_entropy(0.6));
        assert_eq!(membership_entropy(1.0), 0.0);
        assert!((membership_entropy(0.3) - membership_entropy(0.7)).abs() < 1e-6);
    }

    #[test]
    fn mia_proxy_runs_and_reports() {
        let users = 24;
        let data = SyntheticConfig::builder()
            .users(users)
            .items(100)
            .communities(4)
            .interactions_per_user(12)
            .seed(3)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 1).unwrap();
        let k = 4;
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let spec = GmfSpec::new(100, 8);
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
        let owners: Vec<Option<UserId>> = (0..users).map(|u| Some(UserId::from_index(u))).collect();
        let mut attack = MiaCommunityAttack::new(
            MiaConfig { cia: CiaConfig { k, beta: 0.9, eval_every: 2, seed: 0 }, rho: 0.4 },
            spec,
            split.train_sets().to_vec(),
            users,
            truths,
            owners,
            split.train_sets().to_vec(),
        );
        let mut sim =
            FedAvg::new(clients, FedAvgConfig { rounds: 10, seed: 4, ..Default::default() });
        sim.run(&mut attack);
        let out = attack.outcome();
        assert!(out.max_aac >= 0.0 && out.max_aac <= 1.0);
        assert!(out.history.len() == 5);
        let p = attack.precision_at_max();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn rejects_beta_outside_unit_interval() {
        let cia = CiaConfig { k: 1, beta: 1.5, eval_every: 1, seed: 0 };
        let _ = MiaCommunityAttack::new(
            MiaConfig { cia, rho: 0.4 },
            GmfSpec::new(10, 4),
            vec![vec![1]],
            2,
            vec![vec![]],
            vec![None],
            vec![vec![], vec![]],
        );
    }
}
