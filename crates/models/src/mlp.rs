//! A small multi-layer perceptron.
//!
//! Used twice in the paper: the MNIST universality experiment (§VIII-E, one
//! hidden layer of 100 units trained in FL) and the AIA baseline's
//! gradient classifier (§VIII-C2, five fully-connected layers with ReLU and a
//! sigmoid output). Hidden activations are ReLU; the output head is softmax
//! cross-entropy for multi-class and sigmoid binary cross-entropy when the
//! final layer has a single unit.

use crate::kernel;
use crate::params::init_uniform;
use crate::participant::{stamp_snapshot, Participant, SharedModel};
use cia_data::{ImageDataset, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// L2 weight decay of every MLP step.
const WEIGHT_DECAY: f32 = 1e-5;

/// MLP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpHyper {
    /// SGD learning rate.
    pub lr: f32,
    /// Mini-batch size for local training.
    pub batch_size: usize,
}

impl Default for MlpHyper {
    fn default() -> Self {
        MlpHyper { lr: 0.1, batch_size: 16 }
    }
}

/// Architecture of an MLP: layer sizes `[input, hidden..., output]`.
///
/// ```
/// use cia_models::MlpSpec;
/// let spec = MlpSpec::new(vec![4, 3, 2]);
/// assert_eq!(spec.param_len(), 4 * 3 + 3 + 3 * 2 + 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    layers: Vec<usize>,
}

impl MlpSpec {
    /// Creates a spec from layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layers are given or any size is zero.
    pub fn new(layers: Vec<usize>) -> Self {
        assert!(layers.len() >= 2, "need at least input and output layers");
        assert!(layers.iter().all(|&s| s > 0), "layer sizes must be positive");
        MlpSpec { layers }
    }

    /// Layer sizes.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }

    /// Input dimensionality.
    pub fn input_len(&self) -> usize {
        self.layers[0]
    }

    /// Output dimensionality.
    pub fn output_len(&self) -> usize {
        *self.layers.last().expect("validated: >= 2 layers")
    }

    /// Total number of parameters (weights + biases).
    pub fn param_len(&self) -> usize {
        self.layers.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// He-style initialization of a fresh parameter vector.
    pub fn init_params(&self, rng: &mut StdRng) -> Vec<f32> {
        let mut params = vec![0.0f32; self.param_len()];
        let mut off = 0;
        for w in self.layers.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            let scale = (2.0 / n_in as f32).sqrt();
            init_uniform(&mut params[off..off + n_in * n_out], scale, rng);
            off += n_in * n_out + n_out; // biases stay zero
        }
        params
    }

    /// Forward pass on `params`, returning the output logits.
    ///
    /// Allocation-sensitive callers should hold an [`MlpScratch`] and use
    /// [`MlpSpec::forward_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the slices have unexpected lengths.
    pub fn forward(&self, params: &[f32], x: &[f32]) -> Vec<f32> {
        let mut scratch = MlpScratch::default();
        self.forward_into(params, x, &mut scratch).to_vec()
    }

    /// Forward pass into reusable buffers: every layer runs as one fused
    /// [`kernel::gemv`] (ReLU on hidden layers), activations land in
    /// `scratch`, and the returned slice borrows the output layer. No
    /// allocation after the scratch has warmed up to this spec's shape.
    ///
    /// # Panics
    ///
    /// Panics if the slices have unexpected lengths.
    pub fn forward_into<'s>(
        &self,
        params: &[f32],
        x: &[f32],
        scratch: &'s mut MlpScratch,
    ) -> &'s [f32] {
        assert_eq!(params.len(), self.param_len(), "param size");
        assert_eq!(x.len(), self.input_len(), "input size");
        scratch.ensure(self);
        let n_layers = self.layers.len() - 1;
        scratch.acts[..x.len()].copy_from_slice(x);
        for li in 0..n_layers {
            let (n_in, n_out) = (self.layers[li], self.layers[li + 1]);
            let off = scratch.param_off[li];
            let weights = &params[off..off + n_in * n_out];
            let biases = &params[off + n_in * n_out..off + n_in * n_out + n_out];
            // Consecutive layers occupy disjoint ranges of the flat
            // activation buffer.
            let (prev_part, next_part) = scratch.acts.split_at_mut(scratch.act_off[li + 1]);
            let prev = &prev_part[scratch.act_off[li]..];
            let next = &mut next_part[..n_out];
            kernel::gemv(next, weights, prev, Some(biases), li + 1 < n_layers);
        }
        let out_off = scratch.act_off[n_layers];
        &scratch.acts[out_off..out_off + self.output_len()]
    }

    /// Max-shifted log-sum-exp of logits (the normalizer of softmax).
    #[must_use]
    pub fn log_sum_exp(logits: &[f32]) -> f32 {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        logits.iter().map(|&z| (z - max).exp()).sum::<f32>().ln() + max
    }

    /// Log-softmax of logits.
    pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
        let lse = Self::log_sum_exp(logits);
        logits.iter().map(|&z| z - lse).collect()
    }
}

/// Reusable forward/backward buffers for one [`MlpSpec`] shape.
///
/// Holds the flat per-layer activations, the two delta buffers backprop
/// ping-pongs between, the gradient accumulator, and the precomputed layer
/// offsets. `MlpScratch::ensure` sizes everything on first use (or on a
/// spec change); after that, training and inference allocate nothing per
/// sample.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Flat activations; layer `l` lives at `act_off[l]..act_off[l] + layers[l]`.
    acts: Vec<f32>,
    /// Activation offset per layer (`layers.len()` + 1 sentinel entries).
    act_off: Vec<usize>,
    /// Parameter offset of each layer's weight block.
    param_off: Vec<usize>,
    /// dL/dz of the current layer (sized to the widest layer).
    delta: Vec<f32>,
    /// dL/dz of the previous layer, swapped with `delta` each step.
    prev_delta: Vec<f32>,
    /// Gradient accumulator over the mini-batch (`param_len` entries).
    grads: Vec<f32>,
    /// The layer sizes the buffers were sized for.
    shape: Vec<usize>,
}

impl MlpScratch {
    /// Sizes the forward-pass buffers for `spec` (no-op when already
    /// matching). The training-only buffers (deltas, gradients) are sized
    /// separately by [`MlpScratch::ensure_train`], so inference-only callers
    /// never pay for a `param_len`-sized gradient accumulator.
    fn ensure(&mut self, spec: &MlpSpec) {
        if self.shape == spec.layers {
            return;
        }
        self.shape = spec.layers.clone();
        self.act_off.clear();
        let mut off = 0;
        for &n in &spec.layers {
            self.act_off.push(off);
            off += n;
        }
        self.act_off.push(off);
        self.acts.clear();
        self.acts.resize(off, 0.0);
        self.param_off.clear();
        let mut poff = 0;
        for w in spec.layers.windows(2) {
            self.param_off.push(poff);
            poff += w[0] * w[1] + w[1];
        }
        // A spec change invalidates the training buffers too; they regrow on
        // the next `ensure_train`.
        self.delta.clear();
        self.prev_delta.clear();
        self.grads.clear();
    }

    /// Sizes the backprop buffers on top of [`MlpScratch::ensure`].
    fn ensure_train(&mut self, spec: &MlpSpec) {
        self.ensure(spec);
        let widest = spec.layers.iter().copied().max().expect("non-empty spec");
        self.delta.resize(widest, 0.0);
        self.prev_delta.resize(widest, 0.0);
        self.grads.resize(spec.param_len(), 0.0);
    }
}

/// A trainable MLP: spec plus parameters, with persistent training scratch.
#[derive(Debug, Clone)]
pub struct Mlp {
    spec: MlpSpec,
    params: Vec<f32>,
    hyper: MlpHyper,
    scratch: MlpScratch,
}

impl Mlp {
    /// Creates a freshly initialized MLP.
    pub fn new(spec: MlpSpec, hyper: MlpHyper, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = spec.init_params(&mut rng);
        Mlp { spec, params, hyper, scratch: MlpScratch::default() }
    }

    /// The architecture.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// The flat parameter vector.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Forward pass returning logits.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.spec.forward(&self.params, x)
    }

    /// Predicted class (argmax of logits).
    pub fn predict_class(&self, x: &[f32]) -> usize {
        let logits = self.forward(x);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("non-empty output")
    }

    /// Sigmoid probability for a single-output (binary) head.
    ///
    /// # Panics
    ///
    /// Panics if the output layer has more than one unit.
    pub fn prob_binary(&self, x: &[f32]) -> f32 {
        assert_eq!(self.spec.output_len(), 1, "binary head required");
        crate::params::sigmoid(self.forward(x)[0])
    }

    /// One SGD step on a mini-batch with a softmax cross-entropy head.
    /// Returns the mean loss.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or a label is out of range.
    pub fn train_classification(&mut self, xs: &[&[f32]], labels: &[usize]) -> f32 {
        assert!(!xs.is_empty() && xs.len() == labels.len(), "batch shape");
        let out = self.spec.output_len();
        assert!(labels.iter().all(|&l| l < out), "label out of range");
        self.train_batch(xs, |logits, i, delta| {
            // Softmax cross-entropy, computed without materializing log-probs:
            // delta = softmax(z) − one_hot(label), loss = lse − z[label].
            let lse = MlpSpec::log_sum_exp(logits);
            for (d, &z) in delta.iter_mut().zip(logits) {
                *d = (z - lse).exp();
            }
            delta[labels[i]] -= 1.0;
            lse - logits[labels[i]]
        })
    }

    /// One SGD step on a mini-batch with a sigmoid binary cross-entropy head.
    /// Returns the mean loss.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or the output layer is not a single unit.
    pub fn train_binary(&mut self, xs: &[&[f32]], targets: &[f32]) -> f32 {
        assert!(!xs.is_empty() && xs.len() == targets.len(), "batch shape");
        assert_eq!(self.spec.output_len(), 1, "binary head required");
        self.train_batch(xs, |logits, i, delta| {
            let p = crate::params::sigmoid(logits[0]);
            let y = targets[i];
            let eps = 1e-7f32;
            delta[0] = p - y;
            -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln())
        })
    }

    /// Shared batched backprop on the persistent [`MlpScratch`]; `head`
    /// writes dL/dlogits into the provided buffer and returns the loss.
    /// Every layer runs through the [`kernel`] gemv/ger primitives and no
    /// buffer is allocated inside the sample loop.
    fn train_batch(
        &mut self,
        xs: &[&[f32]],
        head: impl Fn(&[f32], usize, &mut [f32]) -> f32,
    ) -> f32 {
        let spec = &self.spec;
        let n_layers = spec.layers.len() - 1;
        // The scratch moves out so `self.params` stays borrowable.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.ensure_train(spec);
        scratch.grads.fill(0.0);
        let mut total_loss = 0.0f32;

        for (bi, x) in xs.iter().enumerate() {
            // Forward, keeping per-layer activations in the flat buffer.
            assert_eq!(x.len(), spec.input_len(), "input size");
            scratch.acts[..x.len()].copy_from_slice(x);
            for li in 0..n_layers {
                let (n_in, n_out) = (spec.layers[li], spec.layers[li + 1]);
                let off = scratch.param_off[li];
                let weights = &self.params[off..off + n_in * n_out];
                let biases = &self.params[off + n_in * n_out..off + n_in * n_out + n_out];
                let (prev_part, next_part) = scratch.acts.split_at_mut(scratch.act_off[li + 1]);
                let prev = &prev_part[scratch.act_off[li]..];
                kernel::gemv(
                    &mut next_part[..n_out],
                    weights,
                    prev,
                    Some(biases),
                    li + 1 < n_layers,
                );
            }

            let out_off = scratch.act_off[n_layers];
            let logits = &scratch.acts[out_off..out_off + spec.output_len()];
            total_loss += head(logits, bi, &mut scratch.delta[..spec.output_len()]);

            // Backward.
            for li in (0..n_layers).rev() {
                let (n_in, n_out) = (spec.layers[li], spec.layers[li + 1]);
                let off = scratch.param_off[li];
                let prev = &scratch.acts[scratch.act_off[li]..scratch.act_off[li] + n_in];
                let delta = &scratch.delta[..n_out];
                // dW += δ ⊗ a, db += δ.
                kernel::ger(&mut scratch.grads[off..off + n_in * n_out], delta, prev);
                for (g, d) in scratch.grads[off + n_in * n_out..off + n_in * n_out + n_out]
                    .iter_mut()
                    .zip(delta)
                {
                    *g += d;
                }
                if li > 0 {
                    // delta_{l-1} = Wᵀ δ ⊙ relu'(a_{l-1})
                    let weights = &self.params[off..off + n_in * n_out];
                    let prev_delta = &mut scratch.prev_delta[..n_in];
                    prev_delta.fill(0.0);
                    kernel::gemv_t(prev_delta, weights, delta);
                    for (pd, a) in prev_delta.iter_mut().zip(prev) {
                        if *a <= 0.0 {
                            *pd = 0.0;
                        }
                    }
                    std::mem::swap(&mut scratch.delta, &mut scratch.prev_delta);
                }
            }
        }

        let scale = self.hyper.lr / xs.len() as f32;
        for (p, g) in self.params.iter_mut().zip(&scratch.grads) {
            *p -= scale * g + self.hyper.lr * WEIGHT_DECAY * *p;
        }
        self.scratch = scratch;
        total_loss / xs.len() as f32
    }
}

/// An MNIST-style FL participant holding one-class image data (§VIII-E).
#[derive(Debug, Clone)]
pub struct MlpClient {
    model: Mlp,
    user: UserId,
    data: Arc<ImageDataset>,
    samples: Vec<usize>,
    rng_salt: u64,
}

impl MlpClient {
    /// Builds a client over `samples` (indices into `data`).
    pub fn new(
        spec: MlpSpec,
        hyper: MlpHyper,
        user: UserId,
        data: Arc<ImageDataset>,
        samples: Vec<usize>,
        seed: u64,
    ) -> Self {
        MlpClient { model: Mlp::new(spec, hyper, seed), user, data, samples, rng_salt: seed }
    }

    /// The underlying model.
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// Classification accuracy over the given samples.
    pub fn accuracy_on(&self, samples: &[usize]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let hits = samples
            .iter()
            .filter(|&&s| {
                self.model.predict_class(self.data.image(s)) == self.data.label(s) as usize
            })
            .count();
        hits as f64 / samples.len() as f64
    }
}

impl Participant for MlpClient {
    fn user(&self) -> UserId {
        self.user
    }

    fn agg_len(&self) -> usize {
        self.model.spec.param_len()
    }

    fn agg(&self) -> &[f32] {
        &self.model.params
    }

    fn absorb_agg(&mut self, agg: &[f32]) {
        assert_eq!(agg.len(), self.model.params.len(), "agg size mismatch");
        self.model.params.copy_from_slice(agg);
    }

    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        // Fold the per-participant salt into the protocol's stream so two
        // clients handed identical RNG state still shuffle differently.
        let mut order_rng = StdRng::seed_from_u64(rng.gen::<u64>() ^ self.rng_salt);
        let mut order = self.samples.clone();
        order.shuffle(&mut order_rng);
        let bs = self.model.hyper.batch_size.max(1);
        let mut loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(bs) {
            let xs: Vec<&[f32]> = chunk.iter().map(|&s| self.data.image(s)).collect();
            let labels: Vec<usize> = chunk.iter().map(|&s| self.data.label(s) as usize).collect();
            loss += self.model.train_classification(&xs, &labels);
            batches += 1;
        }
        if batches == 0 {
            0.0
        } else {
            loss / batches as f32
        }
    }

    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        stamp_snapshot(slot, self.user, round, None);
        slot.agg.clone_from(&self.model.params);
    }

    fn num_examples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::ImageGenConfig;

    #[test]
    fn param_len_counts_weights_and_biases() {
        let spec = MlpSpec::new(vec![784, 100, 10]);
        assert_eq!(spec.param_len(), 784 * 100 + 100 + 100 * 10 + 10);
    }

    #[test]
    fn log_softmax_normalizes() {
        let lp = MlpSpec::log_softmax(&[1.0, 2.0, 3.0]);
        let total: f32 = lp.iter().map(|&v| v.exp()).sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert!(lp.iter().all(|&v| v <= 0.0));
    }

    #[test]
    fn learns_xor() {
        // XOR requires the hidden layer — a solid end-to-end backprop check.
        let spec = MlpSpec::new(vec![2, 8, 1]);
        let mut mlp = Mlp::new(spec, MlpHyper { lr: 0.5, batch_size: 4 }, 3);
        let xs: Vec<Vec<f32>> =
            vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys = [0.0f32, 1.0, 1.0, 0.0];
        let refs: Vec<&[f32]> = xs.iter().map(std::vec::Vec::as_slice).collect();
        let mut last = f32::MAX;
        for _ in 0..2000 {
            last = mlp.train_binary(&refs, &ys);
        }
        assert!(last < 0.1, "xor loss stuck at {last}");
        for (x, &y) in xs.iter().zip(&ys) {
            let p = mlp.prob_binary(x);
            assert_eq!(p > 0.5, y > 0.5, "xor({x:?}) = {p}");
        }
    }

    #[test]
    fn classification_gradient_check() {
        let spec = MlpSpec::new(vec![3, 4, 2]);
        let mut mlp = Mlp::new(spec.clone(), MlpHyper { lr: 0.0, batch_size: 1 }, 5);
        let x = [0.3f32, -0.2, 0.9];
        let label = 1usize;

        let loss_of = |params: &[f32]| -> f64 {
            let logits = spec.forward(params, &x);
            -(MlpSpec::log_softmax(&logits)[label]) as f64
        };

        // Analytic gradient via a training step with lr encoded in params diff:
        // run with tiny lr and recover grad = (before - after) / lr.
        let before = mlp.params().to_vec();
        mlp.hyper.lr = 1e-4;
        mlp.train_classification(&[&x], &[label]);
        let after = mlp.params().to_vec();

        let eps = 1e-2f32;
        // Spot-check a handful of parameters.
        for &pi in &[0usize, 5, 11, spec.param_len() - 1] {
            let ana = (before[pi] - after[pi]) as f64 / 1e-4;
            let mut pp = before.clone();
            pp[pi] += eps;
            let mut pm = before.clone();
            pm[pi] -= eps;
            let num = (loss_of(&pp) - loss_of(&pm)) / (2.0 * eps as f64);
            assert!((num - ana).abs() < 2e-2, "param {pi}: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn mlp_client_trains_on_one_class() {
        let data =
            Arc::new(ImageDataset::generate(&ImageGenConfig { samples_per_class: 6, seed: 9 }));
        let samples = data.indices_of_class(3);
        let spec = MlpSpec::new(vec![cia_data::IMAGE_DIM, 32, 10]);
        let mut client = MlpClient::new(
            spec,
            MlpHyper::default(),
            UserId::new(0),
            Arc::clone(&data),
            samples.clone(),
            1,
        );
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            client.train_local(&mut rng);
        }
        // After local-only training on class 3, it should classify its own
        // samples as class 3.
        assert!(client.accuracy_on(&samples) > 0.9);
        let snap = client.snapshot(1);
        assert!(snap.owner_emb.is_none());
        assert_eq!(snap.agg.len(), client.agg_len());
    }
}
