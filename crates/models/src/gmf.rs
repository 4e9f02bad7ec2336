//! Generalized Matrix Factorization (GMF), from the Neural Collaborative
//! Filtering family [13].
//!
//! GMF scores a user/item pair as `ŷ_ui = σ(h · (p_u ⊙ q_i))` and is trained
//! on binarized implicit feedback with binary cross-entropy and negative
//! sampling, as in the paper (§V-A, §V-B).
//!
//! Flat parameter layout: `[ p_u (d) | Q (|V|·d) | h (d) ]`; the aggregatable
//! slice is everything after the user embedding: in the shared
//! [`FactorClient`] layout, the `|V|`-row region `Q` and the tail `h`.
//!
//! **Scoring works on pre-sigmoid logits.** The sigmoid is monotone, so
//! every *per-item ranking* consumer — HR@20, F1@20 — is exactly invariant
//! to dropping it, and `exp()` dominated per-item scoring cost (the
//! "sigmoid-bound" plateau in `BENCH_kernels.json`). The mean-score relevance `Ŷ(Θ, V_target)` is *not*
//! invariant (a mean does not commute with a per-item monotone transform):
//! the attack now ranks by mean logit instead of mean probability, and
//! Pers-Gossip's peer-personalization score
//! ([`crate::Participant::evaluate_model`]) contrasts mean logits instead of mean
//! probabilities — deliberate substitutions, valid under §IV-B's "any
//! recommendation quality metric", that avoid sigmoid saturation compressing
//! late-training scores into indistinguishability.
//! The sigmoid survives where calibrated probabilities are genuinely needed:
//! the BCE training loss, the adversary-embedding gradient, and the MIA
//! proxy's entropy rule. Use [`crate::params::sigmoid`] explicitly to report
//! a calibrated score.
//!
//! **Hot loops are monomorphised on the embedding dimension.** Local
//! training (`train_epoch`) and the mean-logit relevance behind
//! [`RelevanceScorer::mean_relevance`] (`mean_logit`, the Share-less attack's
//! per-target pass) each have one body generic over a `const D: usize`.
//! Training, the mean logit and its model-tiled form behind
//! [`RelevanceScorer::mean_relevance_tile`] (`mean_logit_tile`) each
//! dispatch `8 | runtime d`, since d = 8 is the only dimension any scenario
//! runs. With a constant `D` every row dot unrolls and its bounds checks
//! fold away; the accumulation order is the same on every arm, so the
//! result is bit-identical whatever the dispatch.

use crate::factor::{
    FactorClient, FactorModel, ADVERSARY_EPOCHS, ADVERSARY_WARM_EPOCHS, INIT_SCALE, WEIGHT_DECAY,
};
use crate::kernel::{cache_aligned, dot, dot3, gemv, LANES};
use crate::params::{init_uniform, sigmoid};
use crate::participant::{client_id_and_seed, RelevanceScorer, SharingPolicy};
use cia_data::UserId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cell::RefCell;

/// SGD learning rate of local training and of the adversary's fictive
/// embedding.
const LR: f32 = 0.1;

/// Negative samples per positive interaction.
const NEGATIVES: usize = 4;

/// Immutable description of a GMF model family: catalog size and embedding
/// dimension.
///
/// ```
/// use cia_models::GmfSpec;
/// let spec = GmfSpec::new(100, 8);
/// assert_eq!(spec.agg_len(), 100 * 8 + 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmfSpec {
    num_items: u32,
    dim: usize,
}

impl GmfSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `num_items == 0` or `dim == 0`.
    pub fn new(num_items: u32, dim: usize) -> Self {
        assert!(num_items > 0, "catalog must be non-empty");
        assert!(dim > 0, "embedding dimension must be positive");
        GmfSpec { num_items, dim }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length of the aggregatable slice: `|V|·d + d`.
    pub fn agg_len(&self) -> usize {
        self.num_items as usize * self.dim + self.dim
    }

    /// Initializes a fresh aggregatable parameter vector (item embeddings
    /// plus output layer `h`).
    pub fn init_agg(&self, rng: &mut StdRng) -> Vec<f32> {
        let mut agg = vec![0.0f32; self.agg_len()];
        init_uniform(&mut agg, INIT_SCALE, rng);
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
        FactorClient::new(self, user, train_items, policy, seed, Vec::new())
    }

    /// Builds one client per training set: client `u` owns `train_sets[u]`
    /// under the id and seed [`client_id_and_seed`] derives from `seed`.
    pub fn build_clients(
        &self,
        train_sets: &[Vec<u32>],
        policy: SharingPolicy,
        seed: u64,
    ) -> Vec<GmfClient> {
        train_sets
            .iter()
            .enumerate()
            .map(|(u, items)| {
                let (id, seed) = client_id_and_seed(u, seed);
                self.build_client(id, items.clone(), policy, seed)
            })
            .collect()
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

thread_local! {
    /// Per-thread model-minor copy of one Share-less scoring tile's
    /// parameters, then its hoisted `w` (see
    /// [`RelevanceScorer::mean_relevance_tile`]): 430 KB at paper scale,
    /// reused by every tile a worker scores.
    static TILE_PARAMS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Embedding dimension up to which the hoisted `w = p_u ⊙ h` product lives on
/// the stack (scoring stays allocation-free for every realistic `d`).
const W_STACK: usize = 64;

/// Upper bound on negatives per sampling group: the stack-allocated group
/// buffers hold one positive and up to this many negatives.
const MAX_NEGATIVES: usize = 15;

// A sampling group of one positive and `NEGATIVES` negatives fits them.
const _: () = assert!(NEGATIVES <= MAX_NEGATIVES);

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

    fn score_item_range(&self, user_emb: Option<&[f32]>, agg: &[f32], start: u32, out: &mut [f32]) {
        let user = user_emb.expect("GMF scoring needs a user embedding");
        let (start, end) = (start as usize, start as usize + out.len());
        assert!(end <= self.num_items as usize, "item range exceeds catalog");
        assert_eq!(agg.len(), GmfSpec::agg_len(self), "agg size");
        let d = self.dim;
        let h = self.h_slice(agg);
        // Logit z_j = (p_u ⊙ h) · q_j: w is hoisted once (stack, no
        // allocation). Item embeddings are row-major by id, so the tile is
        // one dense `out.len() × d` sub-matrix: a single fused gemv whose
        // rows are independent chunked `dot`s. σ is monotone, so ranking
        // and relevance means never need it (module docs).
        with_user_h(user, h, |w| gemv(out, &agg[start * d..end * d], w, None, false));
    }

    fn mean_relevance(&self, user_emb: Option<&[f32]>, agg: &[f32], items: &[u32]) -> f32 {
        let user = user_emb.expect("GMF scoring needs a user embedding");
        // Checked once per call: `mean_logit` slices rows by `self.dim` and
        // its `dot_pinned` only debug-asserts lengths.
        assert_eq!(user.len(), self.dim, "user embedding length");
        if items.is_empty() {
            return 0.0;
        }
        let h = self.h_slice(agg);
        let rows = &agg[..self.num_items as usize * self.dim];
        // One monomorphised body at the paper dimension; every other `d` runs
        // the identical runtime-length body.
        with_user_h(user, h, |w| match self.dim {
            8 => mean_logit::<8>(w, rows, items),
            _ => mean_logit::<0>(w, rows, items),
        })
    }

    fn mean_relevance_tile(
        &self,
        aggs: &[&[f32]],
        queries: &[(Option<&[f32]>, &[u32])],
        out: &mut [f32],
    ) {
        let (d, rows_len) = (self.dim, self.num_items as usize * self.dim);
        assert!(aggs.len() <= LANES, "at most {LANES} models per tile");
        assert_eq!(out.len(), aggs.len() * queries.len(), "one output per model and query");
        for agg in aggs {
            assert_eq!(agg.len(), GmfSpec::agg_len(self), "agg size");
        }
        TILE_PARAMS.with(|cell| {
            let tile = &mut *cell.borrow_mut();
            let tile = cache_aligned(tile, (rows_len + 2 * d) * LANES);
            // Model-minor copy of every model's `[ Q | h ]`: the `LANES`
            // values of one coordinate sit side by side. Lanes past
            // `aggs.len()` keep stale values whose outputs are never read.
            for (m, agg) in aggs.iter().enumerate() {
                for (i, &x) in agg.iter().enumerate() {
                    tile[i * LANES + m] = x;
                }
            }
            let (rows, rest) = tile.split_at_mut(rows_len * LANES);
            let (h, w) = rest.split_at_mut(d * LANES);
            for (q, &(user_emb, items)) in queries.iter().enumerate() {
                let user = user_emb.expect("GMF scoring needs a user embedding");
                assert_eq!(user.len(), d, "user embedding length");
                let means = if items.is_empty() {
                    [0.0; LANES]
                } else {
                    // `w = p_u ⊙ h` per lane, as `with_user_h` hoists it.
                    for (k, &u) in user.iter().enumerate() {
                        for m in 0..LANES {
                            w[k * LANES + m] = u * h[k * LANES + m];
                        }
                    }
                    match d {
                        8 => mean_logit_tile::<8>(w, rows, items),
                        _ => mean_logit_tile::<0>(w, rows, items),
                    }
                };
                for (m, &mean) in means.iter().take(aggs.len()).enumerate() {
                    out[m * queries.len() + q] = mean;
                }
            }
        });
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
                ADVERSARY_WARM_EPOCHS
            }
            None => {
                init_uniform(&mut emb, INIT_SCALE, rng);
                ADVERSARY_EPOCHS
            }
        };
        for _ in 0..epochs {
            for &pos in target_items {
                // One positive step and `NEGATIVES` negative steps, updating
                // only the fictive embedding (item embeddings stay fixed).
                self.adversary_step(&mut emb, agg, h, pos, 1.0);
                for _ in 0..NEGATIVES {
                    let neg = rng.gen_range(0..self.num_items);
                    if target_items.binary_search(&neg).is_err() {
                        self.adversary_step(&mut emb, agg, h, neg, 0.0);
                    }
                }
            }
        }
        Some(emb)
    }
}

impl GmfSpec {
    fn adversary_step(&self, emb: &mut [f32], agg: &[f32], h: &[f32], j: u32, y: f32) {
        let q = self.item_slice(agg, j);
        let g = sigmoid(dot3(emb, h, q)) - y;
        for k in 0..self.dim {
            emb[k] -= LR * g * h[k] * q[k];
        }
    }
}

/// A GMF participant: one user's local model and training data. The row
/// region is the `|V|` item rows, the tail is `h`.
pub type GmfClient = FactorClient<GmfSpec>;

impl FactorModel for GmfSpec {
    /// Scratch for the per-epoch shuffled visit order (no per-epoch alloc).
    type Local = Vec<u32>;

    fn rows(&self) -> usize {
        self.num_items as usize
    }

    fn init_agg(&self, rng: &mut StdRng) -> Vec<f32> {
        GmfSpec::init_agg(self, rng)
    }

    fn train_local(client: &mut GmfClient, rng: &mut StdRng) -> f32 {
        // Monomorphize the hot epoch on the embedding dimension: with a
        // const `d` every per-coordinate loop unrolls and vectorizes (the
        // generic fallback keeps identical structure with a runtime bound).
        match client.spec.dim {
            8 => client.train_epoch::<8>(rng),
            _ => client.train_epoch::<0>(rng),
        }
    }
}

impl GmfClient {
    /// Scores candidate items with the client's own model (utility
    /// evaluation). Returns pre-sigmoid logits — apply
    /// [`crate::params::sigmoid`] for calibrated probabilities; ranking
    /// metrics never need it (module docs).
    pub fn score_candidates(&self, items: &[u32]) -> Vec<f32> {
        self.score_candidates_with(&self.agg, items)
    }

    /// [`GmfClient::score_candidates`] with the public parameters `agg` in
    /// place of the client's own — FedAvg's global model, which its
    /// clients deploy and do not keep.
    pub fn score_candidates_with(&self, agg: &[f32], items: &[u32]) -> Vec<f32> {
        let h = self.spec.h_slice(agg);
        with_user_h(&self.user_emb, h, |w| {
            items.iter().map(|&j| dot(w, self.spec.item_slice(agg, j))).collect()
        })
    }

    /// One local training epoch over the shuffled item set, in sampling
    /// groups of one positive plus [`NEGATIVES`] negatives (the
    /// dimension-monomorphized body of [`FactorModel::train_local`]).
    fn train_epoch<const D: usize>(&mut self, rng: &mut StdRng) -> f32 {
        let d = if D == 0 { self.spec.dim } else { D };
        let tau = self.policy.tau();
        let num_items = self.spec.num_items;
        // Reused scratch: shuffled visit order, taken out of `self` so the
        // group steps can borrow `self` mutably.
        let mut order = std::mem::take(&mut self.local);
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
            for _ in 0..NEGATIVES {
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
                tau,
                reference,
                &mut prod,
                &mut loss,
            );
            steps += len;
        }
        self.user_emb.copy_from_slice(u);
        self.local = order;
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
                    let dq = g * h[k] * u[k] + WEIGHT_DECAY * qk;
                    q[k] = (qk - LR * dq).clamp(-CLAMP, CLAMP);
                }
            }
            Some(r) => {
                let r = &r[j * d..][..d];
                for k in 0..d {
                    let qk = q[k];
                    du[k] += g * h[k] * qk;
                    dh[k] += g * u[k] * qk;
                    let dq = g * h[k] * u[k] + WEIGHT_DECAY * qk + 2.0 * tau * (qk - r[k]);
                    q[k] = (qk - LR * dq).clamp(-CLAMP, CLAMP);
                }
            }
        }
    }
    let gl = group.len() as f32;
    for k in 0..d {
        u[k] = (u[k] - LR * (du[k] + gl * WEIGHT_DECAY * u[k])).clamp(-CLAMP, CLAMP);
        h[k] = (h[k] - LR * (dh[k] + gl * WEIGHT_DECAY * h[k])).clamp(-CLAMP, CLAMP);
    }
}

/// [`dot`] with indexed loops so a compile-time-constant slice length fully
/// unrolls; the accumulation order matches [`dot`] exactly (same lanes, same
/// pairwise fold), so the two are bit-identical.
#[inline(always)]
fn dot_pinned(a: &[f32], b: &[f32]) -> f32 {
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

/// Mean logit `Σ_j (w · q_j) / |items|` over the item rows `rows` (row-major
/// by id, `d` floats each) for a non-empty item list.
///
/// `D` is the compile-time embedding dimension (0 = runtime dimension from
/// `w.len()`). With a constant `D` each row's [`dot_pinned`] fully unrolls
/// and its slice bounds fold away, so a per-target pass is a tight gather
/// loop. The runtime arm keeps [`dot`]'s chunked loop, which is faster than
/// an indexed loop with a runtime bound. The logits are summed into one
/// serial accumulator in item order, and [`dot_pinned`] is bit-identical to
/// [`dot`], so the result is bit-identical to a plain `acc += dot(w, q_j)`
/// loop on every arm.
#[inline]
fn mean_logit<const D: usize>(w: &[f32], rows: &[f32], items: &[u32]) -> f32 {
    let d = if D == 0 { w.len() } else { D };
    let w = &w[..d];
    let mut acc = 0.0f32;
    for &j in items {
        let q = &rows[j as usize * d..][..d];
        acc += if D == 0 { dot(w, q) } else { dot_pinned(w, q) };
    }
    acc / items.len() as f32
}

/// [`mean_logit`] for `LANES` models at once, one model per lane: `w` and
/// `rows` are model-minor (`w[k * LANES + m]`, and item `j`'s row is
/// `rows[j * d * LANES..][..d * LANES]`, laid out the same way).
///
/// Lane `m` runs exactly the float operations of `mean_logit` on model `m`,
/// in the same order: each item's [`dot_tile`] lane equals [`dot`] (and so
/// [`dot_pinned`]), and the logits are summed from `0.0` in item order. The
/// result is therefore bit-identical on every lane and every dispatch arm.
#[inline]
fn mean_logit_tile<const D: usize>(w: &[f32], rows: &[f32], items: &[u32]) -> [f32; LANES] {
    let d = if D == 0 { w.len() / LANES } else { D };
    let w = &w[..d * LANES];
    let mut acc = [0.0f32; LANES];
    for &j in items {
        let logits = dot_tile(w, &rows[j as usize * d * LANES..][..d * LANES]);
        for m in 0..LANES {
            acc[m] += logits[m];
        }
    }
    let len = items.len() as f32;
    acc.map(|a| a / len)
}

/// [`dot`] on every lane of two model-minor `d × LANES` blocks: per lane,
/// `LANES` partial sums over the `LANES`-wide chunks of the coordinates
/// (each starting from `0.0`), the same pairwise fold, then the tail added
/// in order.
#[inline(always)]
fn dot_tile(w: &[f32], q: &[f32]) -> [f32; LANES] {
    debug_assert_eq!(w.len(), q.len());
    let d = w.len() / LANES;
    let chunks = d / LANES;
    let mut part = [[0.0f32; LANES]; LANES];
    for c in 0..chunks {
        for (l, p) in part.iter_mut().enumerate() {
            let k = (c * LANES + l) * LANES;
            for m in 0..LANES {
                p[m] += w[k + m] * q[k + m];
            }
        }
    }
    let mut sum = [0.0f32; LANES];
    for (m, s) in sum.iter_mut().enumerate() {
        let fold = [
            part[0][m] + part[4][m],
            part[1][m] + part[5][m],
            part[2][m] + part[6][m],
            part[3][m] + part[7][m],
        ];
        *s = (fold[0] + fold[2]) + (fold[1] + fold[3]);
    }
    for k in chunks * LANES..d {
        for m in 0..LANES {
            sum[m] += w[k * LANES + m] * q[k * LANES + m];
        }
    }
    sum
}

/// Folds a remaining BCE probability product into accumulated nats.
fn flush_loss(loss: f32, prod: f64) -> f32 {
    loss + -(prod.ln() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Participant;
    use rand::SeedableRng;

    /// `c` with its aggregate drawn, as a gossip node holds it.
    fn drawn(mut c: GmfClient) -> GmfClient {
        c.draw_agg();
        c
    }

    fn spec() -> GmfSpec {
        GmfSpec::new(30, 4)
    }

    #[test]
    fn training_reduces_loss_and_separates_items() {
        let s = spec();
        let mut c =
            drawn(s.build_client(UserId::new(0), vec![1, 2, 3, 4, 5], SharingPolicy::Full, 7));
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
        let s = GmfSpec::new(5, 3);
        let c = drawn(s.build_client(UserId::new(0), vec![0], SharingPolicy::Full, 3));
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
        let s = GmfSpec::new(40, 80);
        let mut c =
            drawn(s.build_client(UserId::new(0), vec![1, 2, 3, 4, 5], SharingPolicy::Full, 7));
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
    fn the_paper_dimension_epoch_equals_the_runtime_dimension_epoch() {
        // `train_local` sends d = 8 to `train_epoch::<8>`; on clones of one
        // client and one stream, the runtime-`d` body gives the same bits.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let s = GmfSpec::new(30, 8);
        for policy in [SharingPolicy::Full, SharingPolicy::ShareLess { tau: 0.5 }] {
            let mut fixed = drawn(s.build_client(UserId::new(0), vec![1, 2, 3, 4, 5], policy, 7));
            let reference = fixed.agg.clone();
            fixed.absorb_agg(&reference);
            let mut runtime = fixed.clone();
            let (mut rng8, mut rng0) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
            for epoch in 0..6 {
                let ctx = format!("{policy:?}, epoch {epoch}");
                let (a, b) =
                    (fixed.train_epoch::<8>(&mut rng8), runtime.train_epoch::<0>(&mut rng0));
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: loss");
                assert_eq!(bits(&fixed.agg), bits(&runtime.agg), "{ctx}: aggregate");
                assert_eq!(bits(&fixed.user_emb), bits(&runtime.user_emb), "{ctx}: user embedding");
                assert_eq!(fixed.touched, runtime.touched, "{ctx}: touched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "user embedding length")]
    fn mean_relevance_rejects_a_long_embedding_at_the_paper_dimension() {
        let s = GmfSpec::new(20, 8);
        let agg = s.init_agg(&mut StdRng::seed_from_u64(3));
        let _ = s.mean_relevance(Some(&[0.1; 9]), &agg, &[1, 4]);
    }

    #[test]
    #[should_panic(expected = "user embedding length")]
    fn mean_relevance_rejects_a_long_embedding_at_a_runtime_dimension() {
        let s = GmfSpec::new(20, 4);
        let agg = s.init_agg(&mut StdRng::seed_from_u64(3));
        let _ = s.mean_relevance(Some(&[0.1; 5]), &agg, &[1, 4]);
    }

    #[test]
    fn full_range_scores_match_mean_relevance() {
        let s = spec();
        let c = drawn(s.build_client(UserId::new(1), vec![0, 1], SharingPolicy::Full, 9));
        let snap = c.snapshot(0);
        let mut all = vec![0.0f32; 30];
        s.score_item_range(snap.owner_emb.as_deref(), &snap.agg, 0, &mut all);
        let items = [3u32, 7, 9];
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        let mean: f32 = items.iter().map(|&i| all[i as usize]).sum::<f32>() / 3.0;
        let got = s.mean_relevance(snap.owner_emb.as_deref(), &snap.agg, &items);
        assert!((mean - got).abs() < 1e-6);
    }

    #[test]
    fn score_item_range_tiles_match_one_full_range_call() {
        let s = spec();
        let c = drawn(s.build_client(UserId::new(3), vec![0, 2, 5], SharingPolicy::Full, 21));
        let snap = c.snapshot(0);
        let (emb, agg) = (snap.owner_emb.as_deref(), &snap.agg);
        let mut full = vec![0.0f32; 30];
        s.score_item_range(emb, agg, 0, &mut full);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // A tiled catalog walk must equal the full-catalog evaluation bit
        // for bit, whatever the tile width.
        for width in [1usize, 7, 13, 29, 30] {
            let mut tiled = Vec::new();
            for (start, chunk) in (0u32..).step_by(width).zip(full.chunks(width)) {
                let mut tile = vec![f32::NAN; chunk.len()];
                s.score_item_range(emb, agg, start, &mut tile);
                tiled.extend(tile);
            }
            assert_eq!(bits(&tiled), bits(&full), "{width}-item tiles diverged");
        }
        s.score_item_range(emb, agg, 11, &mut []);
    }

    #[test]
    fn share_less_snapshot_hides_user_embedding() {
        let s = spec();
        let c = drawn(s.build_client(
            UserId::new(2),
            vec![0, 1],
            SharingPolicy::ShareLess { tau: 0.5 },
            11,
        ));
        let snap = c.snapshot(3);
        assert!(snap.owner_emb.is_none());
        assert_eq!(snap.round, 3);
        let full = drawn(s.build_client(UserId::new(2), vec![0, 1], SharingPolicy::Full, 11));
        assert!(full.snapshot(0).owner_emb.is_some());
    }

    #[test]
    fn share_less_regularizer_pulls_items_towards_reference() {
        let s = GmfSpec::new(10, 4);
        let mk = |tau: f32, seed: u64| {
            let policy =
                if tau > 0.0 { SharingPolicy::ShareLess { tau } } else { SharingPolicy::Full };
            let mut c = drawn(s.build_client(UserId::new(0), vec![0, 1, 2], policy, seed));
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
        let mut c = drawn(s.build_client(UserId::new(0), vec![1, 2, 3], SharingPolicy::Full, 4));
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
        let mut c = drawn(s.build_client(UserId::new(0), vec![1, 2, 3], SharingPolicy::Full, 4));
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
    fn absorb_agg_roundtrip() {
        let s = spec();
        let mut a = s.build_client(UserId::new(0), vec![1], SharingPolicy::Full, 1);
        let b = drawn(s.build_client(UserId::new(1), vec![2], SharingPolicy::Full, 2));
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
