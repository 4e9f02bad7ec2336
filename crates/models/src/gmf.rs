//! Generalized Matrix Factorization (GMF), from the Neural Collaborative
//! Filtering family [13].
//!
//! GMF scores a user/item pair as `ŷ_ui = σ(h · (p_u ⊙ q_i))` and is trained
//! on binarized implicit feedback with binary cross-entropy and negative
//! sampling, as in the paper (§V-A, §V-B).
//!
//! Flat parameter layout: `[ p_u (d) | Q (|V|·d) | h (d) ]`; the aggregatable
//! slice is everything after the user embedding.
//!
//! **Scoring works on pre-sigmoid logits.** The sigmoid is monotone, so
//! every *per-item ranking* consumer — HR@20, F1@20, normalized-rank
//! relevance — is exactly invariant to dropping it, and `exp()` dominated
//! per-item scoring cost (the "sigmoid-bound" plateau in
//! `BENCH_kernels.json`). The mean-score relevance `Ŷ(Θ, V_target)` is *not*
//! invariant (a mean does not commute with a per-item monotone transform):
//! the attack now ranks by mean logit instead of mean probability, and
//! Pers-Gossip's peer-personalization score
//! ([`Participant::evaluate_model`]) contrasts mean logits instead of mean
//! probabilities — deliberate substitutions, valid under §IV-B's "any
//! recommendation quality metric", that avoid sigmoid saturation compressing
//! late-training scores into indistinguishability.
//! The sigmoid survives where calibrated probabilities are genuinely needed:
//! the BCE training loss, the adversary-embedding gradient, and the MIA
//! proxy's entropy rule. Use [`crate::params::sigmoid`] explicitly to report
//! a calibrated score.

use crate::kernel::{dot, dot3, gemv};
use crate::params::{init_uniform, sigmoid};
use crate::participant::{Participant, RelevanceScorer, SharedModel, SharingPolicy};
use cia_data::UserId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// GMF hyper-parameters (defaults follow the original work where stated).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GmfHyper {
    /// SGD learning rate.
    pub lr: f32,
    /// Negative samples per positive interaction.
    pub negatives: usize,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Uniform initialization half-range.
    pub init_scale: f32,
    /// Epochs used when fitting the adversary's fictive embedding (§IV-C)
    /// from scratch.
    pub adversary_epochs: usize,
    /// Epochs used when the fictive embedding is warm-started from the
    /// previous refresh's solution (public parameters drift slowly between
    /// refreshes, so a short polish suffices).
    pub adversary_warm_epochs: usize,
}

impl Default for GmfHyper {
    fn default() -> Self {
        GmfHyper {
            lr: 0.05,
            negatives: 4,
            weight_decay: 1e-5,
            init_scale: 0.1,
            adversary_epochs: 5,
            adversary_warm_epochs: 2,
        }
    }
}

/// Immutable description of a GMF model family: catalog size, embedding
/// dimension and hyper-parameters.
///
/// ```
/// use cia_models::{GmfSpec, GmfHyper, SharingPolicy};
/// let spec = GmfSpec::new(100, 8, GmfHyper::default());
/// assert_eq!(spec.agg_len(), 100 * 8 + 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GmfSpec {
    num_items: u32,
    dim: usize,
    hyper: GmfHyper,
}

impl GmfSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `num_items == 0`, `dim == 0`, or `hyper.negatives` exceeds
    /// `MAX_NEGATIVES`.
    pub fn new(num_items: u32, dim: usize, hyper: GmfHyper) -> Self {
        assert!(num_items > 0, "catalog must be non-empty");
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(
            hyper.negatives <= MAX_NEGATIVES,
            "at most {MAX_NEGATIVES} negative samples per positive are supported"
        );
        GmfSpec { num_items, dim, hyper }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Hyper-parameters.
    pub fn hyper(&self) -> &GmfHyper {
        &self.hyper
    }

    /// Length of the aggregatable slice: `|V|·d + d`.
    pub fn agg_len(&self) -> usize {
        self.num_items as usize * self.dim + self.dim
    }

    /// Initializes a fresh aggregatable parameter vector (item embeddings
    /// plus output layer `h`).
    pub fn init_agg(&self, rng: &mut StdRng) -> Vec<f32> {
        let mut agg = vec![0.0f32; self.agg_len()];
        init_uniform(&mut agg, self.hyper.init_scale, rng);
        // Start h at 1 so GMF degenerates to plain MF at initialization; the
        // triple product u·h·q otherwise starves plain SGD of gradient.
        let d = self.dim;
        let items = self.num_items as usize * d;
        for v in &mut agg[items..] {
            *v = 1.0;
        }
        agg
    }

    /// Builds a client for `user` with local training items `train_items`
    /// (sorted, deduplicated).
    pub fn build_client(
        &self,
        user: UserId,
        train_items: Vec<u32>,
        policy: SharingPolicy,
        seed: u64,
    ) -> GmfClient {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut user_emb = vec![0.0f32; self.dim];
        init_uniform(&mut user_emb, self.hyper.init_scale, &mut rng);
        let agg = self.init_agg(&mut rng);
        let mut train_mask = vec![0u8; self.num_items as usize];
        for &j in &train_items {
            train_mask[j as usize] = 1;
        }
        GmfClient {
            spec: self.clone(),
            user,
            user_emb,
            agg,
            train_items,
            policy,
            ref_items: None,
            train_mask,
            order: Vec::new(),
            touched: Vec::new(),
            touched_mask: vec![0u8; self.num_items as usize],
        }
    }

    /// Builds a lazily materialized "shell" client for `user`: identical to
    /// [`GmfSpec::build_client`] except that the catalog-sized aggregatable
    /// buffer is never allocated — the client trains inside the borrowed
    /// workspace of [`Participant::fed_round_shared`] instead. The private
    /// user embedding comes off the same RNG stream as `build_client` draws
    /// it (before the aggregatable init there), so a shell and a dense client
    /// built from the same seed carry bit-identical private state.
    pub fn build_shell(
        &self,
        user: UserId,
        train_items: Vec<u32>,
        policy: SharingPolicy,
        seed: u64,
    ) -> GmfClient {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut user_emb = vec![0.0f32; self.dim];
        init_uniform(&mut user_emb, self.hyper.init_scale, &mut rng);
        let mut train_mask = vec![0u8; self.num_items as usize];
        for &j in &train_items {
            train_mask[j as usize] = 1;
        }
        GmfClient {
            spec: self.clone(),
            user,
            user_emb,
            agg: Vec::new(),
            train_items,
            policy,
            ref_items: None,
            train_mask,
            order: Vec::new(),
            touched: Vec::new(),
            touched_mask: vec![0u8; self.num_items as usize],
        }
    }

    #[inline]
    fn item_slice<'a>(&self, agg: &'a [f32], j: u32) -> &'a [f32] {
        let d = self.dim;
        &agg[j as usize * d..(j as usize + 1) * d]
    }

    #[inline]
    fn h_slice<'a>(&self, agg: &'a [f32]) -> &'a [f32] {
        &agg[self.num_items as usize * self.dim..]
    }
}

/// Embedding dimension up to which the hoisted `w = p_u ⊙ h` product lives on
/// the stack (scoring stays allocation-free for every realistic `d`).
const W_STACK: usize = 64;

/// Upper bound on negatives per sampling group (the stack-allocated group
/// buffer size; the paper uses 4). [`GmfSpec::new`] rejects larger settings.
pub const MAX_NEGATIVES: usize = 15;

/// Runs `f` with `w = user ⊙ h` materialized once — on the stack when the
/// dimension allows — so per-item scoring is a plain [`dot`].
#[inline]
fn with_user_h<R>(user: &[f32], h: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
    let d = user.len();
    if d <= W_STACK {
        let mut buf = [0.0f32; W_STACK];
        for ((b, u), hh) in buf.iter_mut().zip(user).zip(h) {
            *b = u * hh;
        }
        f(&buf[..d])
    } else {
        let w: Vec<f32> = user.iter().zip(h).map(|(u, hh)| u * hh).collect();
        f(&w)
    }
}

impl RelevanceScorer for GmfSpec {
    fn num_items(&self) -> u32 {
        self.num_items
    }

    fn agg_len(&self) -> usize {
        GmfSpec::agg_len(self)
    }

    fn user_emb_len(&self) -> usize {
        self.dim
    }

    fn score_items(&self, user_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        let user = user_emb.expect("GMF scoring needs a user embedding");
        assert_eq!(out.len(), self.num_items as usize, "output buffer size");
        assert_eq!(agg.len(), GmfSpec::agg_len(self), "agg size");
        let d = self.dim;
        let h = self.h_slice(agg);
        // Logit z_j = (p_u ⊙ h) · q_j: w is hoisted once (stack, no
        // allocation) and every item is one chunked dot. σ is monotone, so
        // ranking and relevance means never need it (module docs).
        with_user_h(user, h, |w| {
            for (q, o) in agg[..self.num_items as usize * d].chunks_exact(d).zip(out.iter_mut()) {
                *o = dot(w, q);
            }
        });
    }

    fn score_item_range(&self, user_emb: Option<&[f32]>, agg: &[f32], start: u32, out: &mut [f32]) {
        let user = user_emb.expect("GMF scoring needs a user embedding");
        let (start, end) = (start as usize, start as usize + out.len());
        assert!(end <= self.num_items as usize, "item range exceeds catalog");
        assert_eq!(agg.len(), GmfSpec::agg_len(self), "agg size");
        let d = self.dim;
        let h = self.h_slice(agg);
        // Item embeddings are row-major by id, so the tile is one dense
        // `out.len() × d` sub-matrix: a single fused gemv against
        // w = p_u ⊙ h. Each row is the same chunked `dot` as
        // `score_items`, so the two paths agree bit for bit.
        with_user_h(user, h, |w| gemv(out, &agg[start * d..end * d], w, None, false));
    }

    fn mean_relevance(&self, user_emb: Option<&[f32]>, agg: &[f32], items: &[u32]) -> f32 {
        let user = user_emb.expect("GMF scoring needs a user embedding");
        if items.is_empty() {
            return 0.0;
        }
        let h = self.h_slice(agg);
        with_user_h(user, h, |w| {
            let mut acc = 0.0f32;
            for &j in items {
                acc += dot(w, self.item_slice(agg, j));
            }
            acc / items.len() as f32
        })
    }

    fn train_adversary_embedding(
        &self,
        agg: &[f32],
        target_items: &[u32],
        warm_start: Option<&[f32]>,
        rng: &mut StdRng,
    ) -> Option<Vec<f32>> {
        let d = self.dim;
        let h = self.h_slice(agg);
        let mut emb = vec![0.0f32; d];
        let epochs = match warm_start {
            Some(prev) => {
                emb.copy_from_slice(prev);
                self.hyper.adversary_warm_epochs
            }
            None => {
                init_uniform(&mut emb, self.hyper.init_scale, rng);
                self.hyper.adversary_epochs
            }
        };
        let lr = self.hyper.lr;
        for _ in 0..epochs {
            for &pos in target_items {
                // One positive step and `negatives` negative steps, updating
                // only the fictive embedding (item embeddings stay fixed).
                self.adversary_step(&mut emb, agg, h, pos, 1.0, lr);
                for _ in 0..self.hyper.negatives {
                    let neg = rng.gen_range(0..self.num_items);
                    if target_items.binary_search(&neg).is_err() {
                        self.adversary_step(&mut emb, agg, h, neg, 0.0, lr);
                    }
                }
            }
        }
        Some(emb)
    }
}

impl GmfSpec {
    fn adversary_step(&self, emb: &mut [f32], agg: &[f32], h: &[f32], j: u32, y: f32, lr: f32) {
        let q = self.item_slice(agg, j);
        let g = sigmoid(dot3(emb, h, q)) - y;
        for k in 0..self.dim {
            emb[k] -= lr * g * h[k] * q[k];
        }
    }
}

/// A GMF participant: one user's local model and training data.
#[derive(Debug, Clone)]
pub struct GmfClient {
    spec: GmfSpec,
    user: UserId,
    user_emb: Vec<f32>,
    agg: Vec<f32>,
    train_items: Vec<u32>,
    policy: SharingPolicy,
    /// Share-less reference item embeddings (the values received at the start
    /// of the round; Eq. 2's `e_j^t`, or `e_ju^{t-1}` in GL).
    ref_items: Option<Vec<f32>>,
    /// O(1) membership test for negative sampling (`1` = training item).
    train_mask: Vec<u8>,
    /// Scratch for the per-epoch shuffled visit order (no per-epoch alloc).
    order: Vec<u32>,
    /// Item rows modified since the last absorb/mix (sparse-aggregation
    /// vantage: untouched rows still equal the absorbed reference).
    touched: Vec<u32>,
    /// Dedup mask for `touched`.
    touched_mask: Vec<u8>,
}

impl GmfClient {
    /// The model spec this client was built from.
    pub fn spec(&self) -> &GmfSpec {
        &self.spec
    }

    /// The client's own (private) user embedding.
    pub fn user_emb(&self) -> &[f32] {
        &self.user_emb
    }

    /// Scores candidate items with the client's own model (utility
    /// evaluation). Returns pre-sigmoid logits — apply
    /// [`crate::params::sigmoid`] for calibrated probabilities; ranking
    /// metrics never need it (module docs).
    pub fn score_candidates(&self, items: &[u32]) -> Vec<f32> {
        let h = self.spec.h_slice(&self.agg);
        with_user_h(&self.user_emb, h, |w| {
            items.iter().map(|&j| dot(w, self.spec.item_slice(&self.agg, j))).collect()
        })
    }

    /// Resets the touched-row tracking (the absorbed parameters become the
    /// new sparse-update reference).
    fn clear_touched(&mut self) {
        // A paper-scale round touches ~half the catalog: one sequential
        // memset beats hundreds of scattered byte-clears into a cold mask.
        if self.touched.len() * 4 >= self.touched_mask.len() {
            self.touched_mask.fill(0);
        } else {
            for &j in &self.touched {
                self.touched_mask[j as usize] = 0;
            }
        }
        self.touched.clear();
    }

    /// One local training epoch over the shuffled item set, in sampling
    /// groups of one positive plus the configured negatives (the
    /// dimension-monomorphized body of [`Participant::train_local`]).
    fn train_epoch<const D: usize>(&mut self, rng: &mut StdRng) -> f32 {
        let d = if D == 0 { self.spec.dim } else { D };
        let lr = self.spec.hyper.lr;
        let wd = self.spec.hyper.weight_decay;
        let tau = self.policy.tau();
        let negatives = self.spec.hyper.negatives;
        let num_items = self.spec.num_items;
        // Reused scratch: shuffled visit order, taken out of `self` so the
        // group steps can borrow `self` mutably.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend_from_slice(&self.train_items);
        order.shuffle(rng);
        // Hot state is hoisted once per epoch: one agg split, the user
        // embedding and the group-step scratch in stack buffers (a single
        // heap scratch when the dimension exceeds the stack budget), and
        // plain field borrows, so the group kernel touches no `self`
        // indirection.
        let items_len = num_items as usize * d;
        let (items, h) = self.agg.split_at_mut(items_len);
        let h = &mut h[..d];
        let mut stack = [0.0f32; 4 * W_STACK];
        let mut heap = Vec::new();
        let scratch: &mut [f32] = if d <= W_STACK {
            &mut stack
        } else {
            heap.resize(4 * d, 0.0);
            &mut heap
        };
        let (u, rest) = scratch.split_at_mut(d);
        let (w, rest) = rest.split_at_mut(d);
        let (du, rest) = rest.split_at_mut(d);
        let dh = &mut rest[..d];
        u.copy_from_slice(&self.user_emb);
        let reference = if tau > 0.0 { self.ref_items.as_deref() } else { None };
        let touched = &mut self.touched;
        let touched_mask = &mut self.touched_mask;
        let train_mask = &self.train_mask;
        let mut group = [0u32; 1 + MAX_NEGATIVES];
        let mut loss = 0.0f32;
        let mut prod = 1.0f64;
        let mut steps = 0usize;
        for &pos in &order {
            group[0] = pos;
            let mut len = 1;
            for _ in 0..negatives {
                let neg = rng.gen_range(0..num_items);
                if train_mask[neg as usize] == 0 {
                    group[len] = neg;
                    len += 1;
                }
            }
            for &j in &group[..len] {
                if touched_mask[j as usize] == 0 {
                    touched_mask[j as usize] = 1;
                    touched.push(j);
                }
            }
            group_step_kernel::<D>(
                items,
                h,
                u,
                w,
                du,
                dh,
                &group[..len],
                lr,
                wd,
                tau,
                reference,
                &mut prod,
                &mut loss,
            );
            steps += len;
        }
        self.user_emb.copy_from_slice(u);
        self.order = order;
        if steps == 0 {
            0.0
        } else {
            flush_loss(loss, prod) / steps as f32
        }
    }
}

/// One mini-batch SGD step on a sampling group: `group[0]` is the positive
/// item (label 1), the rest are sampled negatives (label 0).
///
/// All logits are evaluated against the group-start parameters and the
/// shared factors `p_u` and `h` are updated once per group — standard
/// minibatching of the per-positive sampling group. The phases are split so
/// the hot math vectorizes: `w = p_u ⊙ h` is hoisted once, the logits are a
/// batch of dots, the sigmoids run through the elementwise
/// [`crate::kernel::sigmoid_in_place`], and the BCE loss folds into a
/// running f64 *product* (`Σ −ln xᵢ = −ln Π xᵢ`) flushed through one `ln`
/// only on underflow — removing every per-step transcendental latency
/// chain, which dominated the cost of a paper-scale round. Weight decay on
/// `p_u`/`h` is scaled by the group size so the effective per-epoch decay
/// matches the per-item formulation.
///
/// `D` is the compile-time embedding dimension (0 = runtime dimension from
/// `h.len()`); `prod` carries the running BCE probability product and
/// `loss` the flushed nats ([`flush_loss`] folds the remainder).
#[allow(clippy::too_many_arguments)]
#[inline]
fn group_step_kernel<const D: usize>(
    items: &mut [f32],
    h: &mut [f32],
    u: &mut [f32],
    w: &mut [f32],
    du: &mut [f32],
    dh: &mut [f32],
    group: &[u32],
    lr: f32,
    wd: f32,
    tau: f32,
    reference: Option<&[f32]>,
    prod: &mut f64,
    loss: &mut f32,
) {
    let d = if D == 0 { h.len() } else { D };
    // Re-pinning every scratch slice to length `d` (compile-time constant on
    // the monomorphized paths) folds the bounds checks away.
    let h = &mut h[..d];
    let u = &mut u[..d];
    let w = &mut w[..d];
    let du = &mut du[..d];
    let dh = &mut dh[..d];
    for k in 0..d {
        w[k] = u[k] * h[k];
        du[k] = 0.0;
        dh[k] = 0.0;
    }
    let mut zs = [0.0f32; 1 + MAX_NEGATIVES];
    for idx in 0..group.len() {
        let j = group[idx] as usize;
        zs[idx] = dot_pinned(w, &items[j * d..][..d]);
    }
    // Padding the batch to a full 8-lane vector keeps the sigmoid loop
    // tail-free under AVX2; the padded lanes hold zeros and their outputs
    // are never read.
    let padded = group.len().next_multiple_of(8).min(zs.len());
    crate::kernel::sigmoid_in_place(&mut zs[..padded]);
    let eps = 1e-7f32;
    // Under heavy DP noise the absorbed model can carry large coordinates;
    // clamping keeps local SGD finite (the model is destroyed either way,
    // which is what the DP experiments measure).
    const CLAMP: f32 = 20.0;
    for idx in 0..group.len() {
        let j = group[idx] as usize;
        let p = zs[idx];
        let g = if idx == 0 {
            *prod *= f64::from(p + eps);
            p - 1.0
        } else {
            *prod *= f64::from(1.0 - p + eps);
            p
        };
        if *prod < 1e-280 {
            *loss += -(prod.ln() as f32);
            *prod = 1.0;
        }
        let q = &mut items[j * d..][..d];
        // The Share-less branch is hoisted out of the per-coordinate loop so
        // the common full-sharing path stays vectorizable.
        match reference {
            None => {
                for k in 0..d {
                    let qk = q[k];
                    du[k] += g * h[k] * qk;
                    dh[k] += g * u[k] * qk;
                    let dq = g * h[k] * u[k] + wd * qk;
                    q[k] = (qk - lr * dq).clamp(-CLAMP, CLAMP);
                }
            }
            Some(r) => {
                let r = &r[j * d..][..d];
                for k in 0..d {
                    let qk = q[k];
                    du[k] += g * h[k] * qk;
                    dh[k] += g * u[k] * qk;
                    let dq = g * h[k] * u[k] + wd * qk + 2.0 * tau * (qk - r[k]);
                    q[k] = (qk - lr * dq).clamp(-CLAMP, CLAMP);
                }
            }
        }
    }
    let gl = group.len() as f32;
    for k in 0..d {
        u[k] = (u[k] - lr * (du[k] + gl * wd * u[k])).clamp(-CLAMP, CLAMP);
        h[k] = (h[k] - lr * (dh[k] + gl * wd * h[k])).clamp(-CLAMP, CLAMP);
    }
}

/// [`dot`] with indexed loops so a compile-time-constant slice length fully
/// unrolls; the accumulation order matches [`dot`] exactly (same lanes, same
/// pairwise fold), so the two are bit-identical.
#[inline(always)]
fn dot_pinned(a: &[f32], b: &[f32]) -> f32 {
    use crate::kernel::LANES;
    debug_assert_eq!(a.len(), b.len());
    let d = a.len();
    let mut acc = [0.0f32; LANES];
    let chunks = d / LANES;
    for c in 0..chunks {
        for l in 0..LANES {
            acc[l] += a[c * LANES + l] * b[c * LANES + l];
        }
    }
    let fold = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    let mut sum = (fold[0] + fold[2]) + (fold[1] + fold[3]);
    for k in chunks * LANES..d {
        sum += a[k] * b[k];
    }
    sum
}

/// Folds a remaining BCE probability product into accumulated nats.
fn flush_loss(loss: f32, prod: f64) -> f32 {
    loss + -(prod.ln() as f32)
}

impl Participant for GmfClient {
    fn user(&self) -> UserId {
        self.user
    }

    fn agg_len(&self) -> usize {
        self.spec.agg_len()
    }

    fn agg(&self) -> &[f32] {
        &self.agg
    }

    fn owner_emb(&self) -> Option<&[f32]> {
        self.policy.shares_user_embedding().then_some(self.user_emb.as_slice())
    }

    fn absorb_agg(&mut self, agg: &[f32]) {
        assert_eq!(agg.len(), self.agg.len(), "agg size mismatch");
        self.agg.copy_from_slice(agg);
        self.clear_touched();
        if self.policy.tau() > 0.0 {
            let items_len = self.spec.num_items as usize * self.spec.dim;
            match &mut self.ref_items {
                Some(r) => r.copy_from_slice(&agg[..items_len]),
                slot @ None => *slot = Some(agg[..items_len].to_vec()),
            }
        }
    }

    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        if self.policy.tau() > 0.0 && self.ref_items.is_none() {
            // First round in GL: regularize towards the pre-training values.
            let items_len = self.spec.num_items as usize * self.spec.dim;
            self.ref_items = Some(self.agg[..items_len].to_vec());
        }
        // Monomorphize the hot epoch on the embedding dimension: with a
        // const `d` every per-coordinate loop unrolls and vectorizes (the
        // generic fallback keeps identical structure with a runtime bound).
        match self.spec.dim {
            8 => self.train_epoch::<8>(rng),
            16 => self.train_epoch::<16>(rng),
            _ => self.train_epoch::<0>(rng),
        }
    }

    fn mix_agg(&mut self, others: &[&[f32]]) {
        // In-place uniform mean: one read-modify-write pass over the own
        // parameters instead of materializing the mean and absorbing it.
        // Bit-identical to the default (`w·x` commutes; the default's first
        // axpy adds onto exact zeros, and `uniform_mix` preserves the
        // per-coordinate addition order).
        crate::kernel::uniform_mix(&mut self.agg, others);
        self.clear_touched();
        if self.policy.tau() > 0.0 {
            let items_len = self.spec.num_items as usize * self.spec.dim;
            match &mut self.ref_items {
                Some(r) => r.copy_from_slice(&self.agg[..items_len]),
                slot @ None => *slot = Some(self.agg[..items_len].to_vec()),
            }
        }
    }

    fn fed_round_shared(
        &mut self,
        workspace: &mut Vec<f32>,
        global: &[f32],
        epochs: usize,
        rng: &mut StdRng,
        acc: Option<(f32, &mut [f32])>,
        snapshot: Option<(u64, &mut SharedModel)>,
    ) -> f32 {
        if !self.agg.is_empty() {
            // Dense client: it owns a buffer and never reads the workspace;
            // the fused owned-buffer round trivially preserves the contract.
            let loss = self.fed_round(global, epochs, rng, acc);
            if let Some((round, slot)) = snapshot {
                self.snapshot_into(round, slot);
            }
            return loss;
        }
        assert_eq!(workspace.len(), global.len(), "workspace/global size mismatch");
        assert_eq!(workspace.len(), self.spec.agg_len(), "workspace size");
        // Swapping the workspace in is `absorb_agg(global)` without the
        // catalog-sized memcpy: the caller guarantees it is bit-identical to
        // `global`. The Share-less reference bookkeeping mirrors absorb.
        std::mem::swap(&mut self.agg, workspace);
        debug_assert!(self.touched.is_empty(), "shell client starts untouched");
        if self.policy.tau() > 0.0 {
            let items_len = self.spec.num_items as usize * self.spec.dim;
            match &mut self.ref_items {
                Some(r) => r.copy_from_slice(&global[..items_len]),
                slot @ None => *slot = Some(global[..items_len].to_vec()),
            }
        }
        let mut loss = 0.0;
        for _ in 0..epochs.max(1) {
            loss = self.train_local(rng);
        }
        if let Some((weight, acc)) = acc {
            self.accumulate_update(global, weight, acc);
        }
        if let Some((round, slot)) = snapshot {
            self.snapshot_into(round, slot);
        }
        // Repair: local training modified only the touched item rows, the
        // `h` tail and the private user embedding, so restoring those from
        // `global` leaves the workspace bit-identical to `global` again.
        let d = self.spec.dim;
        let items_len = self.spec.num_items as usize * d;
        for &j in &self.touched {
            let start = j as usize * d;
            self.agg[start..][..d].copy_from_slice(&global[start..][..d]);
        }
        self.agg[items_len..].copy_from_slice(&global[items_len..]);
        self.clear_touched();
        std::mem::swap(&mut self.agg, workspace);
        loss
    }

    fn private_state(&self) -> Vec<f32> {
        // Between sampled FedAvg rounds only the user embedding persists:
        // the aggregatable buffer and the Share-less reference are both
        // re-derived from the incoming global at the next round start.
        self.user_emb.clone()
    }

    fn restore_private_state(&mut self, state: &[f32]) {
        assert_eq!(state.len(), self.spec.dim, "GMF private state size");
        self.user_emb.copy_from_slice(state);
    }

    fn snapshot(&self, round: u64) -> SharedModel {
        SharedModel {
            owner: self.user,
            round,
            owner_emb: self.policy.shares_user_embedding().then(|| self.user_emb.clone()),
            agg: self.agg.clone(),
        }
    }

    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        slot.owner = self.user;
        slot.round = round;
        slot.agg.resize(self.agg.len(), 0.0);
        slot.agg.copy_from_slice(&self.agg);
        if self.policy.shares_user_embedding() {
            match &mut slot.owner_emb {
                Some(e) => {
                    e.resize(self.user_emb.len(), 0.0);
                    e.copy_from_slice(&self.user_emb);
                }
                emb @ None => *emb = Some(self.user_emb.clone()),
            }
        } else {
            slot.owner_emb = None;
        }
    }

    fn accumulate_update(&self, reference: &[f32], weight: f32, out: &mut [f32]) {
        let d = self.spec.dim;
        let items_len = self.spec.num_items as usize * d;
        assert_eq!(self.agg.len(), reference.len(), "reference length mismatch");
        assert_eq!(self.agg.len(), out.len(), "output length mismatch");
        // Local training modifies only the visited item rows and `h`;
        // untouched rows still equal the absorbed reference, so their delta
        // is exactly zero and the pass skips them. Equal-length row slices
        // keep the inner loop free of bounds checks.
        for &j in &self.touched {
            let start = j as usize * d;
            let o = &mut out[start..][..d];
            let a = &self.agg[start..][..d];
            let r = &reference[start..][..d];
            for k in 0..d {
                o[k] += weight * (a[k] - r[k]);
            }
        }
        let o = &mut out[items_len..];
        let a = &self.agg[items_len..];
        let r = &reference[items_len..];
        for k in 0..o.len() {
            o[k] += weight * (a[k] - r[k]);
        }
    }

    fn num_examples(&self) -> usize {
        self.train_items.len()
    }

    fn evaluate_model(&self, model: &SharedModel) -> f32 {
        // Contrast the received public parameters against this node's taste:
        // mean relevance of own train items minus a deterministic probe of
        // the catalog, both scored with the node's own embedding.
        let spec = &self.spec;
        let on = RelevanceScorer::mean_relevance(
            spec,
            Some(&self.user_emb),
            &model.agg,
            &self.train_items,
        );
        let stride = (spec.num_items() / 64).max(1);
        let probe: Vec<u32> = (0..spec.num_items()).step_by(stride as usize).collect();
        let off = RelevanceScorer::mean_relevance(spec, Some(&self.user_emb), &model.agg, &probe);
        on - off
    }

    fn state_vec(&self) -> Vec<f32> {
        // [ user_emb | agg | ref_flag | ref_items? ] — decoded only by
        // `restore_state` below.
        let d = self.spec.dim;
        let items_len = self.spec.num_items as usize * d;
        let mut state = Vec::with_capacity(
            d + self.agg.len() + 1 + self.ref_items.as_ref().map_or(0, Vec::len),
        );
        state.extend_from_slice(&self.user_emb);
        state.extend_from_slice(&self.agg);
        match &self.ref_items {
            Some(r) => {
                debug_assert_eq!(r.len(), items_len);
                state.push(1.0);
                state.extend_from_slice(r);
            }
            None => state.push(0.0),
        }
        state
    }

    fn restore_state(&mut self, state: &[f32]) {
        self.clear_touched();
        let d = self.spec.dim;
        let items_len = self.spec.num_items as usize * d;
        let agg_len = self.agg.len();
        assert!(state.len() > d + agg_len, "GMF state too short");
        self.user_emb.copy_from_slice(&state[..d]);
        self.agg.copy_from_slice(&state[d..d + agg_len]);
        let flag = state[d + agg_len];
        self.ref_items = if flag == 1.0 {
            let r = &state[d + agg_len + 1..];
            assert_eq!(r.len(), items_len, "GMF reference-items state size");
            Some(r.to_vec())
        } else {
            assert_eq!(state.len(), d + agg_len + 1, "GMF state size");
            None
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GmfSpec {
        GmfSpec::new(30, 4, GmfHyper { lr: 0.1, ..GmfHyper::default() })
    }

    #[test]
    fn training_reduces_loss_and_separates_items() {
        let s = spec();
        let mut c = s.build_client(UserId::new(0), vec![1, 2, 3, 4, 5], SharingPolicy::Full, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let first = c.train_local(&mut rng);
        let mut last = first;
        for _ in 0..30 {
            last = c.train_local(&mut rng);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        // Own positives now outscore never-seen items on average.
        let pos = c.score_candidates(&[1, 2, 3, 4, 5]);
        let neg = c.score_candidates(&[20, 21, 22, 23, 24]);
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(mean(&pos) > mean(&neg) + 0.2, "pos {} neg {}", mean(&pos), mean(&neg));
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of one SGD step's implicit gradient on the
        // BCE loss, for each parameter family.
        let s = GmfSpec::new(5, 3, GmfHyper { lr: 0.0, weight_decay: 0.0, ..GmfHyper::default() });
        let c = s.build_client(UserId::new(0), vec![0], SharingPolicy::Full, 3);
        let j = 2u32;
        let y = 1.0f32;
        let d = 3usize;

        let loss_of = |user: &[f32], agg: &[f32]| -> f64 {
            let q = &agg[j as usize * d..(j as usize + 1) * d];
            let h = &agg[5 * d..];
            let mut z = 0.0f32;
            for k in 0..d {
                z += user[k] * h[k] * q[k];
            }
            let p = sigmoid(z) as f64;
            -(y as f64) * p.ln() - (1.0 - y as f64) * (1.0 - p).ln()
        };

        // Analytic gradient (as used in `step`).
        let q: Vec<f32> = c.spec.item_slice(&c.agg, j).to_vec();
        let h: Vec<f32> = c.spec.h_slice(&c.agg).to_vec();
        let u: Vec<f32> = c.user_emb.clone();
        let mut z = 0.0f32;
        for k in 0..d {
            z += u[k] * h[k] * q[k];
        }
        let g = sigmoid(z) - y;

        let eps = 1e-3f32;
        for k in 0..d {
            // du
            let mut up = u.clone();
            up[k] += eps;
            let mut um = u.clone();
            um[k] -= eps;
            let num = (loss_of(&up, &c.agg) - loss_of(&um, &c.agg)) / (2.0 * eps as f64);
            let ana = (g * h[k] * q[k]) as f64;
            assert!((num - ana).abs() < 1e-3, "du[{k}]: numeric {num} vs analytic {ana}");

            // dq
            let mut aggp = c.agg.clone();
            aggp[j as usize * d + k] += eps;
            let mut aggm = c.agg.clone();
            aggm[j as usize * d + k] -= eps;
            let num = (loss_of(&u, &aggp) - loss_of(&u, &aggm)) / (2.0 * eps as f64);
            let ana = (g * h[k] * u[k]) as f64;
            assert!((num - ana).abs() < 1e-3, "dq[{k}]: numeric {num} vs analytic {ana}");

            // dh
            let hoff = 5 * d + k;
            let mut aggp = c.agg.clone();
            aggp[hoff] += eps;
            let mut aggm = c.agg.clone();
            aggm[hoff] -= eps;
            let num = (loss_of(&u, &aggp) - loss_of(&u, &aggm)) / (2.0 * eps as f64);
            let ana = (g * u[k] * q[k]) as f64;
            assert!((num - ana).abs() < 1e-3, "dh[{k}]: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn training_supports_dimensions_beyond_the_stack_budget() {
        // d > W_STACK routes the epoch scratch through the heap fallback;
        // training must behave exactly like the small-d path (no panic,
        // loss decreases, touched tracking intact).
        let s = GmfSpec::new(40, 80, GmfHyper { lr: 0.1, ..GmfHyper::default() });
        let mut c = s.build_client(UserId::new(0), vec![1, 2, 3, 4, 5], SharingPolicy::Full, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let first = c.train_local(&mut rng);
        let mut last = first;
        for _ in 0..20 {
            last = c.train_local(&mut rng);
        }
        assert!(last.is_finite() && last < first, "loss did not decrease: {first} -> {last}");
        assert!(!c.touched.is_empty());
    }

    #[test]
    #[should_panic(expected = "negative samples")]
    fn rejects_oversized_negative_sampling() {
        let _ =
            GmfSpec::new(10, 4, GmfHyper { negatives: MAX_NEGATIVES + 1, ..GmfHyper::default() });
    }

    #[test]
    fn score_items_matches_mean_relevance() {
        let s = spec();
        let c = s.build_client(UserId::new(1), vec![0, 1], SharingPolicy::Full, 9);
        let snap = c.snapshot(0);
        let mut all = vec![0.0f32; 30];
        s.score_items(snap.owner_emb.as_deref(), &snap.agg, &mut all);
        let items = [3u32, 7, 9];
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        let mean: f32 = items.iter().map(|&i| all[i as usize]).sum::<f32>() / 3.0;
        let got = s.mean_relevance(snap.owner_emb.as_deref(), &snap.agg, &items);
        assert!((mean - got).abs() < 1e-6);
    }

    #[test]
    fn score_item_range_matches_score_items_bitwise() {
        let s = spec();
        let c = s.build_client(UserId::new(3), vec![0, 2, 5], SharingPolicy::Full, 21);
        let snap = c.snapshot(0);
        let mut all = vec![0.0f32; 30];
        s.score_items(snap.owner_emb.as_deref(), &snap.agg, &mut all);
        for (start, len) in [(0usize, 30usize), (0, 7), (4, 13), (29, 1), (11, 0)] {
            let mut tile = vec![f32::NAN; len];
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            s.score_item_range(snap.owner_emb.as_deref(), &snap.agg, start as u32, &mut tile);
            assert_eq!(
                tile.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                all[start..start + len].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tile {start}+{len} diverged from full scoring"
            );
        }
    }

    #[test]
    fn share_less_snapshot_hides_user_embedding() {
        let s = spec();
        let c =
            s.build_client(UserId::new(2), vec![0, 1], SharingPolicy::ShareLess { tau: 0.5 }, 11);
        let snap = c.snapshot(3);
        assert!(snap.owner_emb.is_none());
        assert_eq!(snap.round, 3);
        let full = s.build_client(UserId::new(2), vec![0, 1], SharingPolicy::Full, 11);
        assert!(full.snapshot(0).owner_emb.is_some());
    }

    #[test]
    fn share_less_regularizer_pulls_items_towards_reference() {
        let s = GmfSpec::new(10, 4, GmfHyper { lr: 0.05, ..GmfHyper::default() });
        let mk = |tau: f32, seed: u64| {
            let policy =
                if tau > 0.0 { SharingPolicy::ShareLess { tau } } else { SharingPolicy::Full };
            let mut c = s.build_client(UserId::new(0), vec![0, 1, 2], policy, seed);
            let reference = c.agg.clone();
            c.absorb_agg(&reference);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..10 {
                c.train_local(&mut rng);
            }
            let items_len = 10 * 4;
            let drift: f32 = c.agg[..items_len]
                .iter()
                .zip(&reference[..items_len])
                .map(|(a, b)| (a - b).abs())
                .sum();
            drift
        };
        let drift_full = mk(0.0, 2);
        let drift_reg = mk(2.0, 2);
        assert!(
            drift_reg < drift_full,
            "regularized drift {drift_reg} !< unregularized {drift_full}"
        );
    }

    #[test]
    fn adversary_embedding_prefers_target_items() {
        let s = spec();
        // Train a few users so item embeddings carry signal.
        let mut c = s.build_client(UserId::new(0), vec![1, 2, 3], SharingPolicy::Full, 4);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            c.train_local(&mut rng);
        }
        let agg = c.agg().to_vec();
        let target = vec![1u32, 2, 3];
        let emb = s.train_adversary_embedding(&agg, &target, None, &mut rng).unwrap();
        let on_target = s.mean_relevance(Some(&emb), &agg, &target);
        let off_target = s.mean_relevance(Some(&emb), &agg, &[20, 21, 22]);
        assert!(on_target > off_target, "on {on_target} !> off {off_target}");
    }

    #[test]
    fn warm_started_adversary_embedding_stays_on_target() {
        let s = spec();
        let mut c = s.build_client(UserId::new(0), vec![1, 2, 3], SharingPolicy::Full, 4);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            c.train_local(&mut rng);
        }
        let agg = c.agg().to_vec();
        let target = vec![1u32, 2, 3];
        let cold = s.train_adversary_embedding(&agg, &target, None, &mut rng).unwrap();
        // Warm-starting from the cold solution against the same parameters
        // must keep (or improve) the on/off-target separation.
        let warm = s.train_adversary_embedding(&agg, &target, Some(&cold), &mut rng).unwrap();
        let on = s.mean_relevance(Some(&warm), &agg, &target);
        let off = s.mean_relevance(Some(&warm), &agg, &[20, 21, 22]);
        assert!(on > off, "warm-started on {on} !> off {off}");
    }

    #[test]
    fn state_roundtrip_restores_everything() {
        let s = spec();
        let mut c = s.build_client(UserId::new(3), vec![1, 2, 3], SharingPolicy::Full, 6);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            c.train_local(&mut rng);
        }
        let state = c.state_vec();
        let mut fresh = s.build_client(UserId::new(3), vec![1, 2, 3], SharingPolicy::Full, 6);
        fresh.restore_state(&state);
        assert_eq!(fresh.user_emb(), c.user_emb());
        assert_eq!(fresh.agg(), c.agg());
        // Share-less clients carry reference items in the state too.
        let mut sl =
            s.build_client(UserId::new(4), vec![1, 2], SharingPolicy::ShareLess { tau: 0.5 }, 7);
        let reference = sl.agg().to_vec();
        sl.absorb_agg(&reference);
        sl.train_local(&mut rng);
        let state = sl.state_vec();
        let mut fresh =
            s.build_client(UserId::new(4), vec![1, 2], SharingPolicy::ShareLess { tau: 0.5 }, 7);
        fresh.restore_state(&state);
        assert_eq!(fresh.ref_items, sl.ref_items);
        assert_eq!(fresh.agg(), sl.agg());
    }

    #[test]
    fn absorb_agg_roundtrip() {
        let s = spec();
        let mut a = s.build_client(UserId::new(0), vec![1], SharingPolicy::Full, 1);
        let b = s.build_client(UserId::new(1), vec![2], SharingPolicy::Full, 2);
        a.absorb_agg(b.agg());
        assert_eq!(a.agg(), b.agg());
    }

    #[test]
    #[should_panic(expected = "agg size mismatch")]
    fn absorb_agg_rejects_wrong_size() {
        let s = spec();
        let mut a = s.build_client(UserId::new(0), vec![1], SharingPolicy::Full, 1);
        a.absorb_agg(&[0.0; 3]);
    }
}
