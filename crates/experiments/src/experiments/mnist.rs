//! §VIII-E — the universality experiment: CIA on MNIST-style image
//! classification.
//!
//! 100 clients hold samples of exactly one digit class each (strongly
//! non-iid); a community is the set of clients holding the same class. The
//! server-side adversary targets each class with a probe set of held-out
//! images and ranks clients by the mean log-probability their momentum model
//! assigns to the class. The paper reports 100% community recovery against a
//! 10% random bound.

use crate::tables::{pct, Table};
use cia_core::{CiaConfig, FlCia, RelevanceEvaluator};
use cia_data::presets::Scale;
use cia_data::{ImageDataset, ImageGenConfig, UserId, IMAGE_DIM, NUM_CLASSES};
use cia_federated::{FedAvg, FedAvgConfig};
use cia_models::{client_id_and_seed, MlpClient, MlpHyper, MlpScratch, MlpSpec};
use std::sync::Arc;

/// Relevance of an MLP for a class-probe target: the mean log-softmax
/// probability of the class over the probe images.
struct MnistEvaluator {
    spec: MlpSpec,
    data: Arc<ImageDataset>,
    /// `targets[c]` = held-out probe sample indices of class `c`.
    targets: Vec<Vec<usize>>,
}

impl MnistEvaluator {
    /// Shared inner loop: forwards every probe through `scratch` (no per-probe
    /// allocation) and folds the class log-probability inline.
    fn relevance_with(&self, scratch: &mut MlpScratch, agg: &[f32], target: usize) -> f32 {
        let probes = &self.targets[target];
        if probes.is_empty() {
            return f32::NEG_INFINITY;
        }
        let mut acc = 0.0f32;
        for &s in probes {
            let logits = self.spec.forward_into(agg, self.data.image(s), scratch);
            // logp[target] = z[target] − lse, without materializing the full
            // log-softmax vector.
            acc += logits[target] - MlpSpec::log_sum_exp(logits);
        }
        acc / probes.len() as f32
    }
}

impl RelevanceEvaluator for MnistEvaluator {
    fn num_targets(&self) -> usize {
        self.targets.len()
    }

    fn prepare(&mut self, _agg: &[f32], _seed: u64) {}

    fn relevance_one(&self, _owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32 {
        let mut scratch = MlpScratch::default();
        self.relevance_with(&mut scratch, agg, target)
    }

    fn relevance_all(&self, _owner_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.targets.len(), "one output per target");
        // One scratch for the whole model: reused across targets and probes.
        let mut scratch = MlpScratch::default();
        for (t, o) in out.iter_mut().enumerate() {
            *o = self.relevance_with(&mut scratch, agg, t);
        }
    }
}

/// Regenerates the MNIST universality experiment.
pub fn run(scale: Scale, seed: u64) -> Vec<Table> {
    let (clients_per_class, train_per_class, probe_per_class, rounds, hidden) = match scale {
        Scale::Smoke => (3, 12, 4, 5, 32),
        Scale::Small => (6, 30, 8, 10, 64),
        // The paper's setting: 100 clients, one hidden layer of 100 units.
        Scale::Paper => (10, 60, 10, 15, 100),
    };
    let data = Arc::new(ImageDataset::generate(&ImageGenConfig {
        samples_per_class: train_per_class + probe_per_class,
        noise_std: 0.35,
        seed,
    }));

    // Split: the first `train_per_class` of each class feed the clients, the
    // rest form the adversary's probe sets.
    let mut client_samples: Vec<Vec<usize>> = vec![Vec::new(); clients_per_class * NUM_CLASSES];
    let mut probes: Vec<Vec<usize>> = vec![Vec::new(); NUM_CLASSES];
    for c in 0..NUM_CLASSES {
        // cia-lint: allow(D05, MNIST class labels are 0..=9)
        let idx = data.indices_of_class(c as u8);
        for (pos, &sample) in idx.iter().enumerate() {
            if pos < train_per_class {
                client_samples[c * clients_per_class + pos % clients_per_class].push(sample);
            } else {
                probes[c].push(sample);
            }
        }
    }

    let spec = MlpSpec::new(vec![IMAGE_DIM, hidden, NUM_CLASSES]);
    let num_clients = clients_per_class * NUM_CLASSES;
    let clients: Vec<MlpClient> = client_samples
        .iter()
        .enumerate()
        .map(|(u, samples)| {
            let (id, seed) = client_id_and_seed(u, seed);
            MlpClient::new(
                spec.clone(),
                MlpHyper::default(),
                id,
                Arc::clone(&data),
                samples.clone(),
                seed,
            )
        })
        .collect();

    // Truth: the community of class c is exactly the clients holding class c.
    let truths: Vec<Vec<UserId>> = (0..NUM_CLASSES)
        .map(|c| {
            (0..clients_per_class).map(|i| UserId::from_index(c * clients_per_class + i)).collect()
        })
        .collect();
    let evaluator = MnistEvaluator { spec: spec.clone(), data: Arc::clone(&data), targets: probes };
    let mut attack = FlCia::new(
        CiaConfig { k: clients_per_class, beta: 0.99, eval_every: 1, seed },
        evaluator,
        num_clients,
        truths,
        vec![None; NUM_CLASSES],
    );
    let mut sim = FedAvg::new(clients, FedAvgConfig { rounds, seed, ..Default::default() });
    sim.run(&mut attack);

    // Global model accuracy over all training samples (the paper reports
    // 87% on MNIST proper).
    sim.sync_clients_to_global();
    let all: Vec<usize> = (0..data.len()).collect();
    let accuracy = sim.clients()[0].accuracy_on(&all);

    let out = attack.outcome();
    let mut t = Table::new(
        format!("CIA universality on MNIST-style classification ({scale} scale)"),
        &["Quantity", "Value"],
    );
    t.row(vec!["Clients".into(), num_clients.to_string()]);
    t.row(vec!["Communities (classes)".into(), NUM_CLASSES.to_string()]);
    t.row(vec!["Global model accuracy %".into(), pct(accuracy)]);
    t.row(vec!["CIA Max AAC %".into(), pct(out.max_aac)]);
    t.row(vec!["Random bound %".into(), pct(clients_per_class as f64 / num_clients as f64)]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mnist_cia_recovers_class_communities() {
        let tables = run(Scale::Smoke, 41);
        let rows = &tables[0].rows;
        let acc: f64 = rows[3][1].parse().unwrap();
        let random: f64 = rows[4][1].parse().unwrap();
        assert!(acc >= 5.0 * random, "MNIST CIA should be far above random: {acc} vs {random}");
    }
}
