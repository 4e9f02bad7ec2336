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
//! A client is built without its aggregate. Gossip draws it once
//! ([`Participant::draw_agg`]) and the node keeps it; FedAvg lends each
//! client its aggregate and reference buffers for the round it trains in
//! ([`Participant::lend_buffers`], [`Participant::take_buffers`]), so
//! between rounds an FL client holds only its user embedding, its training
//! data and its model's own state.
//!
//! Everything around training (absorb, merge, send and lend, the sparse
//! accumulate and the personalization score) lives in
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

/// Uniform half-range of every initial factor-model parameter: the user
/// embedding, both models' item rows and the adversary's fictive embedding.
pub(crate) const INIT_SCALE: f32 = 0.1;

/// L2 weight decay of GMF and PRME local training.
pub(crate) const WEIGHT_DECAY: f32 = 1e-5;

/// Epochs fitting the adversary's fictive embedding (§IV-C) from scratch.
pub(crate) const ADVERSARY_EPOCHS: usize = 5;

/// Epochs fitting the fictive embedding warm-started from the previous
/// refresh's solution: public parameters drift slowly between refreshes, so
/// a short polish suffices.
pub(crate) const ADVERSARY_WARM_EPOCHS: usize = 2;

/// A factor model's spec: the parts of the client that differ per model
/// (implemented by [`crate::GmfSpec`] and [`crate::PrmeSpec`]). The user
/// embedding is [`RelevanceScorer::user_emb_len`] floats long.
pub trait FactorModel: RelevanceScorer + Clone + std::fmt::Debug + Sized {
    /// Per-client state only this model needs (GMF: the epoch's shuffled
    /// visit order; PRME: the check-in sequence).
    type Local: Clone + std::fmt::Debug + Send + Sync;

    /// Rows in the aggregate's row region (GMF `|V|`, PRME `2|V|`).
    fn rows(&self) -> usize;

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
    /// The public aggregate: empty until drawn or lent.
    pub(crate) agg: Vec<f32>,
    /// The constructor seed, from which the aggregate is drawn on demand.
    seed: u64,
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
    /// (sorted, deduplicated) and the user embedding drawn from a stream
    /// seeded with `seed`. The aggregate, drawn next from that stream, is
    /// left to [`Participant::draw_agg`].
    pub(crate) fn new(
        spec: &S,
        user: UserId,
        train_items: Vec<u32>,
        policy: SharingPolicy,
        seed: u64,
        local: S::Local,
    ) -> Self {
        let (user_emb, _) = Self::draw_user_emb(spec, seed);
        let mut train_mask = vec![0u8; spec.num_items() as usize];
        for &j in &train_items {
            train_mask[j as usize] = 1;
        }
        FactorClient {
            spec: spec.clone(),
            user,
            user_emb,
            agg: Vec::new(),
            seed,
            train_items,
            train_mask,
            policy,
            ref_items: None,
            touched: Vec::new(),
            touched_mask: vec![0u8; spec.rows()],
            local,
        }
    }

    /// The user embedding drawn from the constructor stream seeded with
    /// `seed`, and that stream after the draw.
    fn draw_user_emb(spec: &S, seed: u64) -> (Vec<f32>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut user_emb = vec![0.0f32; spec.user_emb_len()];
        init_uniform(&mut user_emb, INIT_SCALE, &mut rng);
        (user_emb, rng)
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
                Some(r) => {
                    r.clear();
                    r.extend_from_slice(region);
                }
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

    fn draw_agg(&mut self) {
        if self.agg.is_empty() {
            let (_, mut rng) = Self::draw_user_emb(&self.spec, self.seed);
            self.agg = self.spec.init_agg(&mut rng);
        }
    }

    fn lend_buffers(&mut self, agg: Vec<f32>, reference: Vec<f32>) {
        self.agg = agg;
        // Only Share-less regularizes toward a reference.
        self.ref_items = (self.policy.tau() > 0.0).then_some(reference);
    }

    fn take_buffers(&mut self) -> (Vec<f32>, Vec<f32>) {
        let agg = std::mem::take(&mut self.agg);
        (agg, self.ref_items.take().unwrap_or_default())
    }

    fn absorb_agg(&mut self, agg: &[f32]) {
        assert_eq!(agg.len(), self.spec.agg_len(), "agg size mismatch");
        self.agg.clear();
        self.agg.extend_from_slice(agg);
        self.rebase();
    }

    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        if self.policy.tau() > 0.0 && self.ref_items.is_none() {
            // First round in GL: regularize towards the pre-training values.
            self.ref_items = Some(self.agg[..self.region_len()].to_vec());
        }
        S::train_local(self, rng)
    }

    fn merge_agg(&mut self, pushed: &mut Vec<f32>, clean: Option<&[f32]>, mail: &[&[f32]]) {
        // The push holds this client's aggregate buffer; take it back.
        std::mem::swap(&mut self.agg, pushed);
        // DP rewrote the push: restore the clean parameters.
        if let Some(clean) = clean {
            self.agg.copy_from_slice(clean);
        }
        // No mail: the node keeps its parameters and its references.
        if mail.is_empty() {
            return;
        }
        crate::kernel::uniform_mix_in_place(&mut self.agg, mail);
        self.rebase();
    }

    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        stamp_snapshot(slot, self.user, round, self.owner_emb());
        slot.agg.resize(self.agg.len(), 0.0);
        slot.agg.copy_from_slice(&self.agg);
    }

    fn lend_snapshot(&mut self, round: u64, slot: &mut SharedModel) -> bool {
        stamp_snapshot(slot, self.user, round, self.owner_emb());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GmfSpec, PrmeSpec};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The draw `FactorClient::new` used to make eagerly: the user
    /// embedding, then the aggregate, from one stream seeded with `seed`.
    fn eager<S: FactorModel>(spec: &S, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut user_emb = vec![0.0f32; spec.user_emb_len()];
        init_uniform(&mut user_emb, INIT_SCALE, &mut rng);
        (user_emb, spec.init_agg(&mut rng))
    }

    /// GMF and PRME clients over a 40-item catalog, under `policy`.
    fn clients(
        policy: SharingPolicy,
        seed: u64,
    ) -> (FactorClient<GmfSpec>, FactorClient<PrmeSpec>) {
        let gmf = GmfSpec::new(40, 8);
        let prme = PrmeSpec::new(40, 8);
        (
            gmf.build_client(UserId::new(1), vec![2, 5, 9], policy, seed),
            prme.build_client(UserId::new(1), vec![2, 5, 9], vec![9, 2, 5], policy, seed),
        )
    }

    fn check_drawn_on_demand<S: FactorModel>(mut c: FactorClient<S>, seed: u64, ctx: &str) {
        let (emb, agg) = eager(&c.spec, seed);
        assert!(c.agg().is_empty(), "{ctx}: built with an aggregate");
        assert_eq!(bits(c.user_emb()), bits(&emb), "{ctx}: user embedding");
        c.draw_agg();
        assert_eq!(bits(c.agg()), bits(&agg), "{ctx}: drawn aggregate");
        assert_eq!(c.agg().len(), c.agg_len(), "{ctx}");
        // A second draw keeps what the client holds.
        c.absorb_agg(&vec![0.5; agg.len()]);
        c.draw_agg();
        assert!(c.agg().iter().all(|&v| v == 0.5), "{ctx}: a second draw overwrote the aggregate");
    }

    #[test]
    fn the_aggregate_drawn_on_demand_is_the_eager_stream() {
        for policy in [SharingPolicy::Full, SharingPolicy::ShareLess { tau: 0.3 }] {
            for seed in [0, 7, u64::MAX] {
                let (gmf, prme) = clients(policy, seed);
                check_drawn_on_demand(gmf, seed, &format!("GMF {policy:?} seed {seed}"));
                check_drawn_on_demand(prme, seed, &format!("PRME {policy:?} seed {seed}"));
            }
        }
    }

    fn check_lend_and_take_back<S: FactorModel>(mut c: FactorClient<S>, global: &[f32], ctx: &str) {
        let share_less = c.policy.tau() > 0.0;
        c.lend_buffers(Vec::new(), Vec::new());
        c.absorb_agg(global);
        c.train_local(&mut StdRng::seed_from_u64(3));
        let (agg, reference) = c.take_buffers();
        assert_eq!(agg.len(), global.len(), "{ctx}: aggregate buffer");
        assert_eq!(reference.len(), if share_less { c.region_len() } else { 0 }, "{ctx}");
        assert!(c.agg().is_empty() && c.ref_items.is_none(), "{ctx}: kept a buffer");
        // Lent buffers of any length are refilled by the absorb.
        c.lend_buffers(agg, vec![1.0; 3]);
        c.absorb_agg(global);
        assert_eq!(c.agg(), global, "{ctx}: relent aggregate");
        if share_less {
            assert_eq!(c.ref_items.as_deref(), Some(&global[..c.region_len()]), "{ctx}");
        }
    }

    #[test]
    fn lent_buffers_come_back_and_leave_only_the_user_embedding() {
        for policy in [SharingPolicy::Full, SharingPolicy::ShareLess { tau: 0.3 }] {
            let (gmf, prme) = clients(policy, 11);
            let global = vec![0.01; gmf.agg_len()];
            check_lend_and_take_back(gmf, &global, &format!("GMF {policy:?}"));
            let global = vec![0.01; prme.agg_len()];
            check_lend_and_take_back(prme, &global, &format!("PRME {policy:?}"));
        }
    }
}
