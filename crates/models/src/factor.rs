//! The one factor-model client, shared by GMF and PRME.
//!
//! Both recommenders keep a private user embedding `p_u` (`d` floats) next
//! to a public aggregate laid out as a **row region** of `rows × d` floats
//! followed by a dense **tail**:
//!
//! | model | row region | tail |
//! |---|---|---|
//! | GMF  | `|V|` item rows `Q` | output layer `h` (`d` floats) |
//! | PRME | `|V|` preference rows `X`, then `|V|` sequential rows `S` | empty |
//!
//! Local training touches the row region sparsely: the client records the
//! rows it modified since the last absorb or merge, so FedAvg aggregation
//! ([`Participant::accumulate_update`]) visits only those rows plus the
//! tail. The Share-less policy (§III-D) regularizes the row region toward
//! its reference — the values last received — and never shares `p_u`.
//!
//! Everything around training (absorb, merge, send and lend, the sparse
//! accumulate, the personalization score and the checkpoint state) lives in
//! the single [`Participant`] impl for [`FactorClient`]. A model supplies
//! only what really differs through [`FactorModel`]: its
//! [`RelevanceScorer`] spec, its local epoch and its own per-client state.

use crate::params::init_uniform;
use crate::participant::{
    stamp_snapshot, Participant, RelevanceScorer, SharedModel, SharingPolicy,
};
use cia_data::UserId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A factor model's spec: the parts of the client that differ per model
/// (implemented by [`crate::GmfSpec`] and [`crate::PrmeSpec`]). The user
/// embedding is [`RelevanceScorer::user_emb_len`] floats long.
pub trait FactorModel: RelevanceScorer + Clone + std::fmt::Debug + Sized {
    /// Per-client state only this model needs (GMF: the epoch's shuffled
    /// visit order; PRME: the check-in sequence).
    type Local: Clone + std::fmt::Debug + Send + Sync;

    /// Rows in the aggregate's row region (GMF `|V|`, PRME `2|V|`).
    fn rows(&self) -> usize;

    /// Uniform half-range of the user-embedding initialization.
    fn init_scale(&self) -> f32;

    /// A fresh aggregate, drawn after the user embedding from the same
    /// constructor stream.
    fn init_agg(&self, rng: &mut StdRng) -> Vec<f32>;

    /// One local training epoch on `client`; returns the mean training
    /// loss. The epoch must record every row it modifies in
    /// `client.touched`, deduplicated through `client.touched_mask` (as
    /// `client.touch_row` does), and may modify the tail freely. Share-less clients already hold their
    /// reference when it runs.
    fn train_local(client: &mut FactorClient<Self>, rng: &mut StdRng) -> f32;
}

/// A factor-model participant: one user's local model and training data
/// ([`crate::GmfClient`] and [`crate::PrmeClient`]).
#[derive(Debug, Clone)]
pub struct FactorClient<S: FactorModel> {
    pub(crate) spec: S,
    pub(crate) user: UserId,
    pub(crate) user_emb: Vec<f32>,
    pub(crate) agg: Vec<f32>,
    pub(crate) train_items: Vec<u32>,
    /// O(1) membership test for negative sampling (`1` = training item).
    pub(crate) train_mask: Vec<u8>,
    pub(crate) policy: SharingPolicy,
    /// Share-less reference row region (the values received at the start of
    /// the round; Eq. 2's `e_j^t`, or `e_ju^{t-1}` in GL).
    pub(crate) ref_items: Option<Vec<f32>>,
    /// Rows modified since the last absorb/merge (sparse-aggregation
    /// vantage: untouched rows still equal the absorbed reference).
    pub(crate) touched: Vec<u32>,
    /// Dedup mask for `touched`, one byte per row.
    pub(crate) touched_mask: Vec<u8>,
    /// The model's own per-client state.
    pub(crate) local: S::Local,
}

impl<S: FactorModel> FactorClient<S> {
    /// Builds a client for `user` with local training items `train_items`
    /// (sorted, deduplicated): the user embedding, then the aggregate, from
    /// one stream seeded with `seed`.
    pub(crate) fn new(
        spec: &S,
        user: UserId,
        train_items: Vec<u32>,
        policy: SharingPolicy,
        seed: u64,
        local: S::Local,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut user_emb = vec![0.0f32; spec.user_emb_len()];
        init_uniform(&mut user_emb, spec.init_scale(), &mut rng);
        let agg = spec.init_agg(&mut rng);
        let mut train_mask = vec![0u8; spec.num_items() as usize];
        for &j in &train_items {
            train_mask[j as usize] = 1;
        }
        FactorClient {
            spec: spec.clone(),
            user,
            user_emb,
            agg,
            train_items,
            train_mask,
            policy,
            ref_items: None,
            touched: Vec::new(),
            touched_mask: vec![0u8; spec.rows()],
            local,
        }
    }

    /// The model spec this client was built from.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// The client's own (private) user embedding.
    pub fn user_emb(&self) -> &[f32] {
        &self.user_emb
    }

    /// Length of the row region.
    fn region_len(&self) -> usize {
        self.spec.rows() * self.user_emb.len()
    }

    /// Marks a row dirty.
    pub(crate) fn touch_row(&mut self, row: u32) {
        if self.touched_mask[row as usize] == 0 {
            self.touched_mask[row as usize] = 1;
            self.touched.push(row);
        }
    }

    /// Empties the touched-row tracking.
    fn clear_touched(&mut self) {
        // A paper-scale round touches ~half the catalog: one sequential
        // memset beats hundreds of scattered byte-clears into a cold mask.
        if self.touched.len() * 4 >= self.touched_mask.len() {
            self.touched_mask.fill(0);
        } else {
            for &r in &self.touched {
                self.touched_mask[r as usize] = 0;
            }
        }
        self.touched.clear();
    }

    /// Makes the current aggregate the new sparse-update and Share-less
    /// reference (after an absorb or a merge with mail).
    fn rebase(&mut self) {
        self.clear_touched();
        if self.policy.tau() > 0.0 {
            let region = &self.agg[..self.region_len()];
            match &mut self.ref_items {
                Some(r) => r.copy_from_slice(region),
                slot @ None => *slot = Some(region.to_vec()),
            }
        }
    }
}

impl<S: FactorModel> Participant for FactorClient<S> {
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
        self.rebase();
    }

    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        if self.policy.tau() > 0.0 && self.ref_items.is_none() {
            // First round in GL: regularize towards the pre-training values.
            self.ref_items = Some(self.agg[..self.region_len()].to_vec());
        }
        S::train_local(self, rng)
    }

    fn merge_agg(&mut self, own: &[f32], others: &[&[f32]]) {
        if others.is_empty() {
            // No mail: take the lent parameters back unchanged; the node
            // did not mix, so its references stay as they are.
            self.agg.copy_from_slice(own);
            return;
        }
        // Out-of-place uniform mean into the buffer the lend left here:
        // one pass, no intermediate mean (bit-identical to the default,
        // which materializes the same `uniform_mix_into` and absorbs it).
        crate::kernel::uniform_mix_into(&mut self.agg, own, others);
        self.rebase();
    }

    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        stamp_snapshot(slot, self.user, round, self.owner_emb());
        slot.agg.resize(self.agg.len(), 0.0);
        slot.agg.copy_from_slice(&self.agg);
    }

    fn lend_snapshot(&mut self, round: u64, slot: &mut SharedModel) -> bool {
        stamp_snapshot(slot, self.user, round, self.owner_emb());
        slot.agg.resize(self.agg.len(), 0.0);
        std::mem::swap(&mut self.agg, &mut slot.agg);
        true
    }

    fn accumulate_update(&self, reference: &[f32], weight: f32, out: &mut [f32]) {
        let d = self.user_emb.len();
        let region = self.region_len();
        assert_eq!(self.agg.len(), reference.len(), "reference length mismatch");
        assert_eq!(self.agg.len(), out.len(), "output length mismatch");
        // Local training modifies only the touched rows and the tail;
        // untouched rows still equal the absorbed reference, so their delta
        // is exactly zero and the pass skips them. Equal-length row slices
        // keep the inner loop free of bounds checks.
        for &row in &self.touched {
            let start = row as usize * d;
            let o = &mut out[start..][..d];
            let a = &self.agg[start..][..d];
            let r = &reference[start..][..d];
            for k in 0..d {
                o[k] += weight * (a[k] - r[k]);
            }
        }
        let o = &mut out[region..];
        let a = &self.agg[region..];
        let r = &reference[region..];
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
        let on = spec.mean_relevance(Some(&self.user_emb), &model.agg, &self.train_items);
        let stride = (spec.num_items() / 64).max(1);
        let probe: Vec<u32> = (0..spec.num_items()).step_by(stride as usize).collect();
        let off = spec.mean_relevance(Some(&self.user_emb), &model.agg, &probe);
        on - off
    }

    fn state_vec(&self) -> Vec<f32> {
        // [ user_emb | agg | ref_flag | ref_items? ] — decoded only by
        // `restore_state` below.
        let flag = f32::from(u8::from(self.ref_items.is_some()));
        let reference = self.ref_items.as_deref().unwrap_or_default();
        [&self.user_emb[..], &self.agg, &[flag], reference].concat()
    }

    fn restore_state(&mut self, state: &[f32]) -> Result<(), String> {
        let d = self.user_emb.len();
        let params = d + self.agg.len();
        if state.len() <= params {
            return Err(format!("state of {} floats is shorter than {params} + 1", state.len()));
        }
        let (flag, reference) = (state[params], &state[params + 1..]);
        let reference = if flag == 0.0 && reference.is_empty() {
            None
        } else if flag == 1.0 && reference.len() == self.region_len() {
            Some(reference.to_vec())
        } else {
            return Err(format!("reference flag {flag} with {} floats", reference.len()));
        };
        self.user_emb.copy_from_slice(&state[..d]);
        self.agg.copy_from_slice(&state[d..params]);
        self.clear_touched();
        self.ref_items = reference;
        Ok(())
    }
}
