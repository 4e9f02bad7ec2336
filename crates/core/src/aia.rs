//! The attribute-inference proxy (§VIII-C2).
//!
//! Treating community membership as a binary attribute, the adversary samples
//! `N` fictive member datasets from `V_target` and `M` non-member datasets
//! from the rest of the catalog, trains a GMF model locally on each, and
//! feeds the resulting model *updates* to a fully-connected binary classifier
//! (ReLU hidden layers, sigmoid output). The classifier is then applied to
//! real client updates in FL to rank users by membership probability. The
//! paper finds this both costlier and weaker than CIA — largely because
//! locally trained gradients do not match FL-round gradients.

use crate::fl::CiaConfig;
use crate::metrics::{community_accuracy, coverage, top_k_users, AttackOutcome, AttackTracker};
use cia_data::UserId;
use cia_federated::{RoundObserver, RoundStats};
use cia_models::params::l2_norm;
use cia_models::{
    GmfSpec, Mlp, MlpHyper, MlpSpec, Participant, RelevanceScorer, SharedModel, SharingPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// AIA proxy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AiaConfig {
    /// The CIA-compatible parameters (community size, cadence; momentum is
    /// unused — the classifier sees per-round updates).
    pub cia: CiaConfig,
    /// Number of fictive member datasets `N`.
    pub n_member: usize,
    /// Number of fictive non-member datasets `M`.
    pub m_nonmember: usize,
    /// Items per fictive dataset.
    pub subset_size: usize,
    /// Local epochs used to train each fictive model.
    pub fictive_epochs: usize,
    /// Training epochs of the binary classifier.
    pub classifier_epochs: usize,
    /// Hidden layer sizes of the classifier (the paper uses five
    /// fully-connected layers).
    pub hidden: Vec<usize>,
}

impl Default for AiaConfig {
    fn default() -> Self {
        AiaConfig {
            cia: CiaConfig::default(),
            n_member: 20,
            m_nonmember: 20,
            subset_size: 12,
            fictive_epochs: 3,
            classifier_epochs: 60,
            hidden: vec![64, 32, 16, 8],
        }
    }
}

/// Community inference via a gradient classifier, as a federated-server
/// observer attacking a single target item set.
pub struct AiaCommunityAttack {
    cfg: AiaConfig,
    spec: GmfSpec,
    target: Vec<u32>,
    truth: Vec<UserId>,
    owner: Option<UserId>,
    classifier: Option<Mlp>,
    global: Option<Vec<f32>>,
    /// This round's update per user (`agg_after − global_before`).
    updates: Vec<Option<Vec<f32>>>,
    tracker: AttackTracker,
}

impl AiaCommunityAttack {
    /// Creates the proxy attack against one target community.
    ///
    /// # Panics
    ///
    /// Panics if the target is empty or `k == 0`.
    pub fn new(
        cfg: AiaConfig,
        spec: GmfSpec,
        target: Vec<u32>,
        num_users: usize,
        truth: Vec<UserId>,
        owner: Option<UserId>,
    ) -> Self {
        assert!(!target.is_empty(), "target set must be non-empty");
        assert!(cfg.cia.k > 0, "community size must be positive");
        assert!(cfg.cia.eval_every > 0, "eval_every must be positive");
        let candidates = num_users - usize::from(owner.is_some());
        AiaCommunityAttack {
            tracker: AttackTracker::new(cfg.cia.k, candidates),
            cfg,
            spec,
            target,
            truth,
            owner,
            classifier: None,
            global: None,
            updates: (0..num_users).map(|_| None).collect(),
        }
    }

    /// The attack summary.
    pub fn outcome(&self) -> AttackOutcome {
        self.tracker.outcome()
    }

    /// Trains the gradient classifier on fictive member/non-member updates
    /// starting from `global` (done once, at the first evaluation — the
    /// `O(T_M · (N + M)) + O(T_C)` cost of Table IX).
    fn train_classifier(&mut self, global: &[f32]) -> Mlp {
        let mut rng = StdRng::seed_from_u64(self.cfg.cia.seed ^ 0xA1A);
        let num_items = self.spec.num_items();
        let mut inputs: Vec<Vec<f32>> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();

        let fictive_update = |items: Vec<u32>, rng: &mut StdRng| -> Vec<f32> {
            let mut items = items;
            items.sort_unstable();
            items.dedup();
            let mut client = self.spec.build_client(
                UserId::new(u32::MAX - 1),
                items,
                SharingPolicy::Full,
                rng.gen(),
            );
            client.absorb_agg(global);
            for _ in 0..self.cfg.fictive_epochs.max(1) {
                client.train_local(rng);
            }
            let mut update: Vec<f32> =
                client.agg().iter().zip(global).map(|(a, g)| a - g).collect();
            normalize(&mut update);
            update
        };

        for _ in 0..self.cfg.n_member {
            let items: Vec<u32> = (0..self.cfg.subset_size)
                .map(|_| self.target[rng.gen_range(0..self.target.len())])
                .collect();
            inputs.push(fictive_update(items, &mut rng));
            labels.push(1.0);
        }
        for _ in 0..self.cfg.m_nonmember {
            let items: Vec<u32> = (0..self.cfg.subset_size)
                .map(|_| loop {
                    let cand = rng.gen_range(0..num_items);
                    if self.target.binary_search(&cand).is_err() {
                        break cand;
                    }
                })
                .collect();
            inputs.push(fictive_update(items, &mut rng));
            labels.push(0.0);
        }

        let mut layers = vec![self.spec.agg_len()];
        layers.extend_from_slice(&self.cfg.hidden);
        layers.push(1);
        let mut mlp = Mlp::new(
            MlpSpec::new(layers),
            MlpHyper { lr: 0.05, weight_decay: 1e-5, batch_size: 8 },
            self.cfg.cia.seed ^ 0xC1A55,
        );
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        for _ in 0..self.cfg.classifier_epochs {
            // Simple deterministic shuffle per epoch.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(8) {
                let xs: Vec<&[f32]> = chunk.iter().map(|&i| inputs[i].as_slice()).collect();
                let ys: Vec<f32> = chunk.iter().map(|&i| labels[i]).collect();
                mlp.train_binary(&xs, &ys);
            }
        }
        mlp
    }

    fn evaluate(&mut self, round: u64) {
        let Some(global) = self.global.clone() else {
            return;
        };
        if self.classifier.is_none() {
            let clf = self.train_classifier(&global);
            self.classifier = Some(clf);
        }
        let clf = self.classifier.as_ref().expect("trained above");
        let k = self.cfg.cia.k;
        let candidates = (0u32..)
            .zip(&self.updates)
            .filter(|&(id, _)| self.owner != Some(UserId::new(id)))
            .filter_map(|(id, upd)| upd.as_ref().map(|v| (clf.prob_binary(v), id)));
        let predicted = top_k_users(k, candidates);
        if predicted.is_empty() {
            return;
        }
        let acc = community_accuracy(&predicted, &self.truth, k);
        let upper = coverage(&self.truth, k, |u| self.updates[u.index()].is_some());
        self.tracker.record(round, &[acc], &[upper]);
    }
}

fn normalize(v: &mut [f32]) {
    let n = l2_norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

impl RoundObserver for AiaCommunityAttack {
    fn on_global(&mut self, _round: u64, global_agg: &[f32]) {
        self.global = Some(global_agg.to_vec());
    }

    fn on_client_model(&mut self, model: &SharedModel) {
        let Some(global) = &self.global else {
            return;
        };
        let mut update: Vec<f32> =
            model.agg.iter().zip(global.iter()).map(|(a, g)| a - g).collect();
        normalize(&mut update);
        self.updates[model.owner.index()] = Some(update);
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
    use cia_models::{GmfClient, GmfHyper, LivenessEvent};

    /// An 18-user synthetic population as FedAvg clients, and an AIA
    /// against user 0's train set evaluating every `eval_every` rounds.
    fn fixture(eval_every: u64) -> (Vec<GmfClient>, AiaCommunityAttack) {
        let users = 18;
        let data = SyntheticConfig::builder()
            .users(users)
            .items(90)
            .communities(3)
            .interactions_per_user(12)
            .seed(5)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 1).unwrap();
        let k = 4;
        let target_user = 0usize;
        let target = split.train_sets()[target_user].clone();
        let truth = GroundTruth::from_train_sets(split.train_sets(), k)
            .community_of(UserId::new(0))
            .to_vec();
        let spec = GmfSpec::new(90, 8, GmfHyper::default());
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
        let attack = AiaCommunityAttack::new(
            AiaConfig {
                cia: CiaConfig { k, beta: 0.99, eval_every, seed: 1 },
                n_member: 8,
                m_nonmember: 8,
                subset_size: 8,
                fictive_epochs: 2,
                classifier_epochs: 20,
                hidden: vec![16, 8],
            },
            spec,
            target,
            users,
            truth,
            Some(UserId::new(0)),
        );
        (clients, attack)
    }

    #[test]
    fn aia_proxy_runs_end_to_end() {
        let (clients, mut attack) = fixture(3);
        let mut sim =
            FedAvg::new(clients, FedAvgConfig { rounds: 7, seed: 6, ..Default::default() });
        sim.run(&mut attack);
        let out = attack.outcome();
        assert!(!out.history.is_empty());
        assert!((0.0..=1.0).contains(&out.max_aac));
    }

    /// Samples about 30% of each round's acting set, as a coin flip per
    /// `(round, client)`, and forwards everything else to the attack.
    struct Sampled<'a>(&'a mut AiaCommunityAttack);

    impl RoundObserver for Sampled<'_> {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::ActingSet { round, mask } = event {
                for (u, m) in (0u64..).zip(mask.iter_mut()) {
                    *m &= StdRng::seed_from_u64((round << 32) ^ u).gen_bool(0.3);
                }
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

    #[test]
    fn upper_bound_counts_only_sampled_community_members() {
        // With partial participation the bound counts only the community
        // members whose updates the server has received.
        let (clients, mut attack) = fixture(1);
        let cfg = FedAvgConfig { rounds: 1, seed: 6, ..Default::default() };
        FedAvg::new(clients, cfg).run(&mut Sampled(&mut attack));
        let k = attack.cfg.cia.k;
        let sampled = attack.truth.iter().filter(|u| attack.updates[u.index()].is_some()).count();
        let expected = sampled as f64 / k as f64;
        assert!(expected < 1.0, "fixture must leave part of the community unsampled");
        assert_eq!(attack.outcome().history[0].upper_bound, expected);
    }

    #[test]
    #[should_panic(expected = "target set must be non-empty")]
    fn rejects_empty_target() {
        let spec = GmfSpec::new(10, 4, GmfHyper::default());
        let _ = AiaCommunityAttack::new(AiaConfig::default(), spec, vec![], 5, vec![], None);
    }
}
