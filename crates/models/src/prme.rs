//! Personalized Ranking Metric Embedding (PRME) [14].
//!
//! PRME models next-POI recommendation with two metric embedding spaces: a
//! *preference* space (user ↔ item distance) and a *sequential* space
//! (previous item ↔ candidate distance). The score of candidate `i` given
//! user `u` at previous location `l` is the negative weighted distance
//!
//! `D(u, l, i) = α·‖p_u − x_i‖² + (1−α)·‖s_l − s_i‖²`
//!
//! trained with a pairwise ranking (BPR-style) loss over check-in successor
//! pairs. As in the paper, PRME is evaluated only on the POI datasets.
//!
//! Flat parameter layout: `[ p_u (d) | X (|V|·d) | S (|V|·d) ]`; the
//! aggregatable slice holds both item tables, the `2|V|`-row region of the
//! shared [`FactorClient`] layout (its tail is empty).
//!
//! For the attack, relevance is the negative *preference* distance: the
//! adversary has no knowledge of a victim's current location, and preference
//! distance is exactly the personal-taste component CIA exploits.

use crate::factor::{
    FactorClient, FactorModel, ADVERSARY_EPOCHS, ADVERSARY_WARM_EPOCHS, INIT_SCALE, WEIGHT_DECAY,
};
use crate::params::init_uniform;
use crate::participant::{client_id_and_seed, RelevanceScorer, SharingPolicy};
use cia_data::UserId;
use rand::rngs::StdRng;
use rand::Rng;

/// SGD learning rate of local training and of the adversary's fictive
/// embedding.
const LR: f32 = 0.05;

/// Weight α of the preference component (the original work uses 0.2 for
/// next-new-POI; a balanced 0.5 serves general relevance).
const ALPHA: f32 = 0.5;

/// Negative samples per successor pair.
const NEGATIVES: usize = 2;

/// Immutable description of a PRME model family.
///
/// ```
/// use cia_models::PrmeSpec;
/// let spec = PrmeSpec::new(50, 8);
/// assert_eq!(spec.agg_len(), 2 * 50 * 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrmeSpec {
    num_items: u32,
    dim: usize,
}

impl PrmeSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `num_items == 0` or `dim == 0`.
    pub fn new(num_items: u32, dim: usize) -> Self {
        assert!(num_items > 0, "catalog must be non-empty");
        assert!(dim > 0, "embedding dimension must be positive");
        PrmeSpec { num_items, dim }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length of the aggregatable slice: `2·|V|·d`.
    pub fn agg_len(&self) -> usize {
        2 * self.num_items as usize * self.dim
    }

    /// Initializes a fresh aggregatable parameter vector.
    pub fn init_agg(&self, rng: &mut StdRng) -> Vec<f32> {
        let mut agg = vec![0.0f32; self.agg_len()];
        init_uniform(&mut agg, INIT_SCALE, rng);
        agg
    }

    /// Builds a client for `user` from its training item set and check-in
    /// sequence.
    pub fn build_client(
        &self,
        user: UserId,
        train_items: Vec<u32>,
        train_sequence: Vec<u32>,
        policy: SharingPolicy,
        seed: u64,
    ) -> PrmeClient {
        FactorClient::new(self, user, train_items, policy, seed, train_sequence)
    }

    /// Builds one client per training set: client `u` owns `train_sets[u]`
    /// and `sequences[u]` under the id and seed [`client_id_and_seed`]
    /// derives from `seed`.
    pub fn build_clients(
        &self,
        train_sets: &[Vec<u32>],
        sequences: &[Vec<u32>],
        policy: SharingPolicy,
        seed: u64,
    ) -> Vec<PrmeClient> {
        train_sets
            .iter()
            .zip(sequences)
            .enumerate()
            .map(|(u, (items, seq))| {
                let (id, seed) = client_id_and_seed(u, seed);
                self.build_client(id, items.clone(), seq.clone(), policy, seed)
            })
            .collect()
    }

    #[inline]
    fn pref<'a>(&self, agg: &'a [f32], j: u32) -> &'a [f32] {
        let d = self.dim;
        &agg[j as usize * d..(j as usize + 1) * d]
    }

    #[inline]
    fn seq<'a>(&self, agg: &'a [f32], j: u32) -> &'a [f32] {
        let d = self.dim;
        let base = self.num_items as usize * d;
        &agg[base + j as usize * d..base + (j as usize + 1) * d]
    }

    fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl RelevanceScorer for PrmeSpec {
    fn num_items(&self) -> u32 {
        self.num_items
    }

    fn agg_len(&self) -> usize {
        PrmeSpec::agg_len(self)
    }

    fn user_emb_len(&self) -> usize {
        self.dim
    }

    fn score_item_range(&self, user_emb: Option<&[f32]>, agg: &[f32], start: u32, out: &mut [f32]) {
        let user = user_emb.expect("PRME scoring needs a user embedding");
        let end = start as usize + out.len();
        assert!(end <= self.num_items as usize, "item range exceeds catalog");
        assert_eq!(agg.len(), PrmeSpec::agg_len(self), "agg size");
        let d = self.dim;
        // Relevance is the negative squared distance to each item's
        // preference vector; those are row-major by id, so the tile is one
        // dense sub-matrix walked row by row.
        for (x, o) in agg[start as usize * d..end * d].chunks_exact(d).zip(out.iter_mut()) {
            *o = -Self::sq_dist(user, x);
        }
    }

    fn mean_relevance(&self, user_emb: Option<&[f32]>, agg: &[f32], items: &[u32]) -> f32 {
        let user = user_emb.expect("PRME scoring needs a user embedding");
        if items.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0f32;
        for &j in items {
            acc -= Self::sq_dist(user, self.pref(agg, j));
        }
        acc / items.len() as f32
    }

    fn train_adversary_embedding(
        &self,
        agg: &[f32],
        target_items: &[u32],
        warm_start: Option<&[f32]>,
        rng: &mut StdRng,
    ) -> Option<Vec<f32>> {
        let d = self.dim;
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
        // Pull the embedding towards target preference vectors, push away
        // from random negatives (pairwise, mirroring the training loss).
        for _ in 0..epochs {
            for &pos in target_items {
                let neg = rng.gen_range(0..self.num_items);
                if target_items.binary_search(&neg).is_ok() {
                    continue;
                }
                let xp = self.pref(agg, pos);
                let xn = self.pref(agg, neg);
                let z = Self::sq_dist(&emb, xn) - Self::sq_dist(&emb, xp);
                let g = crate::params::sigmoid(z) - 1.0; // d(-ln σ(z))/dz
                for k in 0..d {
                    // dz/de = 2 (x_pos − x_neg)
                    emb[k] -= LR * g * 2.0 * (xp[k] - xn[k]);
                }
            }
        }
        Some(emb)
    }
}

/// A PRME participant: one user's local model and check-in history. The
/// row region is the preference rows (`j`) then the sequential rows
/// (`|V| + j`); the tail is empty.
pub type PrmeClient = FactorClient<PrmeSpec>;

impl FactorModel for PrmeSpec {
    /// The client's check-in sequence.
    type Local = Vec<u32>;

    fn rows(&self) -> usize {
        2 * self.num_items as usize
    }

    fn init_agg(&self, rng: &mut StdRng) -> Vec<f32> {
        PrmeSpec::init_agg(self, rng)
    }

    fn train_local(client: &mut PrmeClient, rng: &mut StdRng) -> f32 {
        let num_items = client.spec.num_items;
        let mut loss = 0.0f32;
        let mut steps = 0usize;
        // Successor pairs from the check-in sequence (`client.local`); fall
        // back to item-set self-pairs when no sequence exists. Indexed
        // access keeps the pair iteration allocation-free.
        let seq_pairs = client.local.len().saturating_sub(1);
        let pair_count = if seq_pairs > 0 { seq_pairs } else { client.train_items.len() };
        for i in 0..pair_count {
            let (l, pos) = if seq_pairs > 0 {
                (client.local[i], client.local[i + 1])
            } else {
                (client.train_items[i], client.train_items[i])
            };
            for _ in 0..NEGATIVES {
                let neg = rng.gen_range(0..num_items);
                if client.train_mask[neg as usize] == 0 {
                    loss += client.pair_step(l, pos, neg);
                    steps += 1;
                }
            }
        }
        if steps == 0 {
            0.0
        } else {
            loss / steps as f32
        }
    }
}

impl PrmeClient {
    /// Scores candidates with the full model (preference + sequential from
    /// the last training check-in), for utility evaluation. Higher is better.
    pub fn score_candidates(&self, items: &[u32]) -> Vec<f32> {
        self.score_candidates_with(&self.agg, items)
    }

    /// [`PrmeClient::score_candidates`] with the public parameters `agg` in
    /// place of the client's own — FedAvg's global model, which its
    /// clients deploy and do not keep.
    pub fn score_candidates_with(&self, agg: &[f32], items: &[u32]) -> Vec<f32> {
        let last = self.local.last().or_else(|| self.train_items.last()).copied();
        items
            .iter()
            .map(|&j| {
                let dp = PrmeSpec::sq_dist(&self.user_emb, self.spec.pref(agg, j));
                let ds = match last {
                    Some(l) => PrmeSpec::sq_dist(self.spec.seq(agg, l), self.spec.seq(agg, j)),
                    None => 0.0,
                };
                -(ALPHA * dp + (1.0 - ALPHA) * ds)
            })
            .collect()
    }

    /// One pairwise step on successor pair `(l → pos)` against negative `neg`.
    fn pair_step(&mut self, l: u32, pos: u32, neg: u32) -> f32 {
        let n = self.spec.num_items;
        for row in [pos, neg, n + l, n + pos, n + neg] {
            self.touch_row(row);
        }
        let d = self.spec.dim;
        let (lr, alpha, wd) = (LR, ALPHA, WEIGHT_DECAY);
        let tau = self.policy.tau();

        // D = α‖p_u − x_i‖² + (1−α)‖s_l − s_i‖², z = D_neg − D_pos.
        let dp_pos = PrmeSpec::sq_dist(&self.user_emb, self.spec.pref(&self.agg, pos));
        let dp_neg = PrmeSpec::sq_dist(&self.user_emb, self.spec.pref(&self.agg, neg));
        let ds_pos = PrmeSpec::sq_dist(self.spec.seq(&self.agg, l), self.spec.seq(&self.agg, pos));
        let ds_neg = PrmeSpec::sq_dist(self.spec.seq(&self.agg, l), self.spec.seq(&self.agg, neg));
        let z = alpha * dp_neg + (1.0 - alpha) * ds_neg - (alpha * dp_pos + (1.0 - alpha) * ds_pos);
        let g = crate::params::sigmoid(z) - 1.0; // ≤ 0

        let base = self.spec.num_items as usize * d;
        let idx_p = |j: u32, k: usize| j as usize * d + k;
        let idx_s = |j: u32, k: usize| base + j as usize * d + k;

        for k in 0..d {
            let u = self.user_emb[k];
            let xp = self.agg[idx_p(pos, k)];
            let xn = self.agg[idx_p(neg, k)];
            let sl = self.agg[idx_s(l, k)];
            let sp = self.agg[idx_s(pos, k)];
            let sn = self.agg[idx_s(neg, k)];

            // dz/dp_u = 2α(x_pos − x_neg)
            self.user_emb[k] -= lr * (g * 2.0 * alpha * (xp - xn) + wd * u);
            // dz/dx_pos = 2α(p_u − x_pos); dz/dx_neg = −2α(p_u − x_neg)
            let mut dxp = g * 2.0 * alpha * (u - xp) + wd * xp;
            let mut dxn = -g * 2.0 * alpha * (u - xn) + wd * xn;
            // dz/ds_l = 2(1−α)(s_pos − s_neg)
            let mut dsl = g * 2.0 * (1.0 - alpha) * (sp - sn) + wd * sl;
            // dz/ds_pos = 2(1−α)(s_l − s_pos); dz/ds_neg = −2(1−α)(s_l − s_neg)
            let mut dsp = g * 2.0 * (1.0 - alpha) * (sl - sp) + wd * sp;
            let mut dsn = -g * 2.0 * (1.0 - alpha) * (sl - sn) + wd * sn;

            if tau > 0.0 {
                if let Some(r) = &self.ref_items {
                    dxp += 2.0 * tau * (xp - r[idx_p(pos, k)]);
                    dxn += 2.0 * tau * (xn - r[idx_p(neg, k)]);
                    dsl += 2.0 * tau * (sl - r[idx_s(l, k)]);
                    dsp += 2.0 * tau * (sp - r[idx_s(pos, k)]);
                    dsn += 2.0 * tau * (sn - r[idx_s(neg, k)]);
                }
            }

            // `-=` keeps aliased updates additive (l may equal pos for
            // revisit pairs); the clamp keeps SGD finite when a heavily
            // DP-noised model was absorbed (mirrors the GMF step guard).
            const CLAMP: f32 = 20.0;
            self.user_emb[k] = self.user_emb[k].clamp(-CLAMP, CLAMP);
            self.agg[idx_p(pos, k)] -= lr * dxp;
            self.agg[idx_p(neg, k)] -= lr * dxn;
            self.agg[idx_s(l, k)] -= lr * dsl;
            self.agg[idx_s(pos, k)] -= lr * dsp;
            self.agg[idx_s(neg, k)] -= lr * dsn;
            for idx in [idx_p(pos, k), idx_p(neg, k), idx_s(l, k), idx_s(pos, k), idx_s(neg, k)] {
                self.agg[idx] = self.agg[idx].clamp(-CLAMP, CLAMP);
            }
        }
        // -ln σ(z): the pairwise ranking loss.
        -crate::kernel::fast_ln(crate::params::sigmoid(z).max(1e-7))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Participant;
    use rand::SeedableRng;

    /// `c` with its aggregate drawn, as a gossip node holds it.
    fn drawn(mut c: PrmeClient) -> PrmeClient {
        c.draw_agg();
        c
    }

    fn spec() -> PrmeSpec {
        PrmeSpec::new(30, 4)
    }

    fn client(seed: u64) -> PrmeClient {
        let items = vec![1, 2, 3, 4, 5];
        let seq = vec![1, 2, 3, 4, 5, 1, 3, 5, 2, 4];
        drawn(spec().build_client(UserId::new(0), items, seq, SharingPolicy::Full, seed))
    }

    #[test]
    fn training_reduces_loss() {
        let mut c = client(3);
        let mut rng = StdRng::seed_from_u64(1);
        let first = c.train_local(&mut rng);
        let mut last = first;
        for _ in 0..40 {
            last = c.train_local(&mut rng);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn trained_model_prefers_own_items() {
        let mut c = client(5);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            c.train_local(&mut rng);
        }
        let pos = c.score_candidates(&[1, 2, 3, 4, 5]);
        let neg = c.score_candidates(&[20, 21, 22, 23, 24]);
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(mean(&pos) > mean(&neg), "pos {} !> neg {}", mean(&pos), mean(&neg));
    }

    #[test]
    fn pairwise_gradient_check() {
        // Finite-difference check of dz/dp_u for the ranking loss.
        let s = PrmeSpec::new(10, 3);
        let c =
            drawn(s.build_client(UserId::new(0), vec![1, 2], vec![1, 2], SharingPolicy::Full, 7));
        let (l, pos, neg) = (1u32, 2u32, 7u32);
        let alpha = ALPHA;

        let loss_of = |user: &[f32]| -> f64 {
            let dp_pos = PrmeSpec::sq_dist(user, s.pref(&c.agg, pos));
            let dp_neg = PrmeSpec::sq_dist(user, s.pref(&c.agg, neg));
            let ds_pos = PrmeSpec::sq_dist(s.seq(&c.agg, l), s.seq(&c.agg, pos));
            let ds_neg = PrmeSpec::sq_dist(s.seq(&c.agg, l), s.seq(&c.agg, neg));
            let z =
                alpha * dp_neg + (1.0 - alpha) * ds_neg - (alpha * dp_pos + (1.0 - alpha) * ds_pos);
            -(crate::params::sigmoid(z) as f64).ln()
        };

        let dp_pos = PrmeSpec::sq_dist(&c.user_emb, s.pref(&c.agg, pos));
        let dp_neg = PrmeSpec::sq_dist(&c.user_emb, s.pref(&c.agg, neg));
        let ds_pos = PrmeSpec::sq_dist(s.seq(&c.agg, l), s.seq(&c.agg, pos));
        let ds_neg = PrmeSpec::sq_dist(s.seq(&c.agg, l), s.seq(&c.agg, neg));
        let z = alpha * dp_neg + (1.0 - alpha) * ds_neg - (alpha * dp_pos + (1.0 - alpha) * ds_pos);
        let g = crate::params::sigmoid(z) - 1.0;

        let eps = 1e-3f32;
        for k in 0..3 {
            let xp = s.pref(&c.agg, pos)[k];
            let xn = s.pref(&c.agg, neg)[k];
            let ana = (g * 2.0 * alpha * (xp - xn)) as f64;
            let mut up = c.user_emb.clone();
            up[k] += eps;
            let mut um = c.user_emb.clone();
            um[k] -= eps;
            let num = (loss_of(&up) - loss_of(&um)) / (2.0 * eps as f64);
            assert!((num - ana).abs() < 1e-3, "dp_u[{k}]: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn relevance_is_negative_distance() {
        let s = spec();
        let c = client(9);
        let snap = c.snapshot(0);
        let mut out = vec![0.0f32; 30];
        s.score_item_range(snap.owner_emb.as_deref(), &snap.agg, 0, &mut out);
        assert!(out.iter().all(|&v| v <= 0.0));
        let m = s.mean_relevance(snap.owner_emb.as_deref(), &snap.agg, &[0, 1]);
        assert!(((out[0] + out[1]) / 2.0 - m).abs() < 1e-6);
    }

    #[test]
    fn score_item_range_tiles_match_one_full_range_call() {
        let s = spec();
        let c = client(17);
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
    fn adversary_embedding_prefers_target_items() {
        let s = spec();
        let mut c = client(13);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..60 {
            c.train_local(&mut rng);
        }
        let agg = c.agg().to_vec();
        let target = vec![1u32, 2, 3];
        let emb = s.train_adversary_embedding(&agg, &target, None, &mut rng).unwrap();
        let on = s.mean_relevance(Some(&emb), &agg, &target);
        let off = s.mean_relevance(Some(&emb), &agg, &[20, 21, 22]);
        assert!(on > off, "on {on} !> off {off}");
    }

    #[test]
    fn share_less_hides_user_embedding_and_regularizes() {
        let s = spec();
        let c = drawn(s.build_client(
            UserId::new(1),
            vec![1, 2],
            vec![1, 2],
            SharingPolicy::ShareLess { tau: 0.5 },
            3,
        ));
        assert!(c.snapshot(0).owner_emb.is_none());
    }
}
