//! The participant abstraction shared by FL and gossip protocols, and the
//! model snapshot exchanged between participants.

use cia_data::UserId;
use rand::rngs::StdRng;

/// What a participant shares with the server (FL) or a neighbor (GL).
///
/// The *aggregatable* part `agg` (item embeddings, output layers) is what
/// protocols average. Under full sharing the snapshot also carries the
/// owner's user embedding — the paper's default, and the leak the Share-less
/// policy closes by setting `owner_emb` to `None` (§III-D).
#[derive(Debug, Clone, PartialEq)]
pub struct SharedModel {
    /// Which participant produced the snapshot.
    pub owner: UserId,
    /// Round at which the snapshot was produced (set by the protocol).
    pub round: u64,
    /// The owner's user embedding; `None` under the Share-less policy or for
    /// models without per-user factors (MLP).
    pub owner_emb: Option<Vec<f32>>,
    /// Aggregatable public parameters.
    pub agg: Vec<f32>,
}

impl SharedModel {
    /// Total number of shared `f32` parameters.
    pub fn len(&self) -> usize {
        self.agg.len() + self.owner_emb.as_ref().map_or(0, Vec::len)
    }

    /// Whether the snapshot carries no parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Client `u`'s id and model seed in a population built from one run seed:
/// the seed salted by the index, so every client draws its own
/// initialization and sampling stream.
///
/// # Panics
///
/// Panics if `u` does not fit a [`UserId`].
pub fn client_id_and_seed(u: usize, seed: u64) -> (UserId, u64) {
    (UserId::from_index(u), seed ^ (u as u64).wrapping_mul(0xD6E8_FEB8))
}

/// Stamps `slot` with everything but the aggregate: owner, round and — when
/// `emb` is given — a copy of the owner embedding reusing the slot's buffer.
pub(crate) fn stamp_snapshot(
    slot: &mut SharedModel,
    owner: UserId,
    round: u64,
    emb: Option<&[f32]>,
) {
    slot.owner = owner;
    slot.round = round;
    match (emb, &mut slot.owner_emb) {
        (Some(src), Some(e)) => {
            e.resize(src.len(), 0.0);
            e.copy_from_slice(src);
        }
        (Some(src), e @ None) => *e = Some(src.to_vec()),
        (None, e) => *e = None,
    }
}

/// Which parameters leave the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharingPolicy {
    /// Full model sharing — the paper's default setting.
    Full,
    /// The Share-less strategy (§III-D): the user embedding stays on-device
    /// and item-embedding updates are regularized toward their reference
    /// value with factor `tau` (Eq. 2).
    ShareLess {
        /// Regularization factor τ of Eq. 2.
        tau: f32,
    },
}

impl SharingPolicy {
    /// Whether the user embedding is shared.
    pub fn shares_user_embedding(self) -> bool {
        matches!(self, SharingPolicy::Full)
    }

    /// The Share-less regularization factor (0 under full sharing).
    pub fn tau(self) -> f32 {
        match self {
            SharingPolicy::Full => 0.0,
            SharingPolicy::ShareLess { tau } => tau,
        }
    }
}

/// A participant in a collaborative learning protocol: owns local data and a
/// model whose public part can be exchanged.
///
/// The protocols drive participants through a strict round structure.
///
/// * **FedAvg:** `lend_buffers` (FedAvg lends the client an aggregate
///   buffer, and a reference buffer for Share-less, from the pool of the
///   worker that trains it), `absorb_agg` (load the global aggregate),
///   `train_local` (one local epoch, possibly repeated), then
///   `snapshot_into` when an observer or the DP transform consumes the
///   client's model. Once the update is folded into the aggregate
///   (`accumulate_update`), `take_buffers` returns both buffers to the
///   pool: between rounds the client holds no aggregate.
/// * **Gossip:** `draw_agg` once at construction (each node keeps its own
///   aggregate for the whole run), then per round `lend_snapshot` (push the
///   pre-round model), then
///   `merge_agg` (rebuild the aggregate from the pushed parameters and the
///   neighbors' models), then `train_local`. Between the two hooks the
///   participant's own aggregate may sit in the pushed model; nothing reads
///   [`Participant::agg`] in that window.
pub trait Participant: Send + Sync {
    /// The participant's user id.
    fn user(&self) -> UserId;

    /// Length of the aggregatable parameter vector.
    fn agg_len(&self) -> usize;

    /// Read access to the current aggregatable parameters.
    fn agg(&self) -> &[f32];

    /// The owner's user embedding as it would be shared, or `None` under
    /// Share-less / for models without user factors. Used by protocols to
    /// compute the embedding part of an outgoing update (DP noising).
    fn owner_emb(&self) -> Option<&[f32]> {
        None
    }

    /// Draws the initial aggregate from the participant's constructor seed
    /// stream, if it holds none, and keeps it from then on: gossip nodes own
    /// their aggregate for the whole run, and FedAvg draws client 0's as the
    /// first global model. The default does nothing, for participants that
    /// own their parameters from construction (the MNIST MLP client).
    fn draw_agg(&mut self) {}

    /// Lends the participant `agg` for its aggregate and `reference` for its
    /// Share-less reference until [`Participant::take_buffers`]. Their
    /// contents and lengths are unspecified: [`Participant::absorb_agg`]
    /// fills them. FedAvg lends before the absorb, from the buffer pool of
    /// the worker that trains the client.
    ///
    /// The default drops both: a participant that owns its parameters keeps
    /// them.
    fn lend_buffers(&mut self, agg: Vec<f32>, reference: Vec<f32>) {
        let _ = (agg, reference);
    }

    /// Returns the aggregate and reference buffers for reuse, leaving the
    /// participant without an aggregate until the next lend. Its
    /// [`Participant::state_vec`] then leaves the aggregate out: the
    /// protocol holds it (FedAvg's global model). The default returns empty
    /// buffers.
    fn take_buffers(&mut self) -> (Vec<f32>, Vec<f32>) {
        (Vec::new(), Vec::new())
    }

    /// Replaces the aggregatable parameters (server broadcast in FL, the
    /// neighborhood mean in the default [`Participant::merge_agg`]). Also
    /// records the incoming values as the Share-less reference embeddings
    /// where applicable.
    fn absorb_agg(&mut self, agg: &[f32]);

    /// Runs one local training epoch; returns the mean training loss.
    fn train_local(&mut self, rng: &mut StdRng) -> f32;

    /// Writes the outgoing snapshot under the participant's sharing policy
    /// into `slot`, reusing its buffers, so protocol rounds stay
    /// allocation-free once warm.
    fn snapshot_into(&self, round: u64, slot: &mut SharedModel);

    /// The outgoing snapshot in a fresh [`SharedModel`], built by
    /// [`Participant::snapshot_into`].
    fn snapshot(&self, round: u64) -> SharedModel {
        let mut slot = SharedModel { owner: self.user(), round, owner_emb: None, agg: Vec::new() };
        self.snapshot_into(round, &mut slot);
        slot
    }

    /// Fills `slot` with the outgoing gossip push and returns whether the
    /// participant *lent* its aggregate to it.
    ///
    /// A lending implementation swaps its aggregate buffer with `slot.agg`
    /// (a recycled buffer, resized to [`Participant::agg_len`] first)
    /// instead of copying it, and copies only the owner embedding. Its own
    /// aggregate is then unspecified until [`Participant::merge_agg`]
    /// rebuilds it from the lent parameters, so the pushed model is the only
    /// copy of them. [`Participant::evaluate_model`] may run in that window
    /// and must not read the own aggregate.
    ///
    /// The default copies through [`Participant::snapshot_into`] and returns
    /// `false`.
    fn lend_snapshot(&mut self, round: u64, slot: &mut SharedModel) -> bool {
        self.snapshot_into(round, slot);
        false
    }

    /// Rebuilds the aggregate after a gossip push.
    ///
    /// `own` holds the clean parameters pushed by
    /// [`Participant::lend_snapshot`] (before any DP rewrite), `others` the
    /// neighbors' models received since the node last merged, in delivery
    /// order. With mail, the aggregate
    /// becomes the uniform mean of `own` and `others` (line 7 of the paper's
    /// Algorithm 2, [`crate::kernel::uniform_mix_into`]), with the same
    /// Share-less reference bookkeeping as [`Participant::absorb_agg`].
    /// Without mail the node keeps its parameters: a lender copies `own`
    /// back with no bookkeeping.
    ///
    /// The default pairs with the copying `lend_snapshot`: it does nothing
    /// without mail (the aggregate never left), and otherwise materializes
    /// the mean and absorbs it.
    fn merge_agg(&mut self, own: &[f32], others: &[&[f32]]) {
        if others.is_empty() {
            return;
        }
        let mut mixed = vec![0.0f32; own.len()];
        crate::kernel::uniform_mix_into(&mut mixed, own, others);
        self.absorb_agg(&mixed);
    }

    /// Accumulates `weight · (agg − reference)` into `out` — the
    /// participant's weighted contribution to an aggregate, relative to the
    /// parameters it absorbed at the start of the round.
    ///
    /// `reference` must be the exact vector passed to the last
    /// [`Participant::absorb_agg`]: implementations that track which
    /// parameters local training actually modified may then skip the
    /// untouched (identical) remainder, turning FedAvg aggregation from a
    /// dense pass over every client's full model into a sparse one. The
    /// default is the dense pass.
    fn accumulate_update(&self, reference: &[f32], weight: f32, out: &mut [f32]) {
        let agg = self.agg();
        assert_eq!(agg.len(), reference.len(), "reference length mismatch");
        assert_eq!(agg.len(), out.len(), "output length mismatch");
        for ((o, &a), &r) in out.iter_mut().zip(agg).zip(reference) {
            *o += weight * (a - r);
        }
    }

    /// Number of local training examples (FedAvg weighting).
    fn num_examples(&self) -> usize;

    /// Personalization score of a received model *for this node* (higher is
    /// better). Pers-Gossip uses it to retain well-performing neighbors
    /// during peer sampling; the default makes all peers equivalent.
    fn evaluate_model(&self, model: &SharedModel) -> f32 {
        let _ = model;
        0.0
    }

    /// Serializes the participant's *full* mutable state (private user
    /// factors, public parameters, defense bookkeeping) into a flat `f32`
    /// vector, for checkpoint/resume of long runs. The encoding is private to
    /// the participant type: only [`Participant::restore_state`] of the same
    /// type needs to understand it.
    ///
    /// The default covers participants whose only mutable state is the
    /// aggregatable slice (e.g. the MNIST MLP client).
    fn state_vec(&self) -> Vec<f32> {
        self.agg().to_vec()
    }

    /// Restores state previously produced by [`Participant::state_vec`] on a
    /// participant constructed with the same spec and constructor seed.
    ///
    /// # Errors
    ///
    /// Returns a description of the misfit, leaving the participant
    /// unchanged, when `state` does not fit the participant's layout (a
    /// truncated or foreign checkpoint). The default accepts exactly
    /// [`Participant::agg_len`] floats.
    fn restore_state(&mut self, state: &[f32]) -> Result<(), String> {
        if state.len() != self.agg_len() {
            return Err(format!("state of {} floats, expected {}", state.len(), self.agg_len()));
        }
        self.absorb_agg(state);
        Ok(())
    }
}

/// A transform applied to a participant's outgoing model update before it is
/// shared (clipping + noising for DP-SGD; see `cia-defenses`).
pub trait UpdateTransform: Send + Sync {
    /// Mutates the outgoing update (`shared_after − shared_before`) in place.
    fn transform(&self, update: &mut [f32], rng: &mut rand::rngs::StdRng);
}

/// Rewrites `snap` through `transform` as an update against a reference: it
/// builds `[emb | agg] − [emb_ref | agg_ref]`, transforms that whole vector
/// (so a clipping bound covers everything shared, as user-level LDP
/// requires), and writes `reference + update` back. An owner embedding
/// without `emb_ref` keeps its value; its update slots start at zero.
///
/// FedAvg passes the pre-round embedding and the global model; gossip passes
/// its previously sent vector split at the embedding length.
pub fn apply_update_transform(
    transform: &dyn UpdateTransform,
    snap: &mut SharedModel,
    emb_ref: Option<&[f32]>,
    agg_ref: &[f32],
    rng: &mut rand::rngs::StdRng,
) {
    let emb_len = snap.owner_emb.as_ref().map_or(0, Vec::len);
    let mut update = vec![0.0f32; emb_len + snap.agg.len()];
    let (emb_up, agg_up) = update.split_at_mut(emb_len);
    if let (Some(emb), Some(emb_ref)) = (&snap.owner_emb, emb_ref) {
        for ((u, e), r) in emb_up.iter_mut().zip(emb).zip(emb_ref) {
            *u = e - r;
        }
    }
    for ((u, a), r) in agg_up.iter_mut().zip(&snap.agg).zip(agg_ref) {
        *u = a - r;
    }
    transform.transform(&mut update, rng);
    let (emb_up, agg_up) = update.split_at(emb_len);
    if let (Some(emb), Some(emb_ref)) = (&mut snap.owner_emb, emb_ref) {
        for ((e, r), u) in emb.iter_mut().zip(emb_ref).zip(emb_up) {
            *e = r + u;
        }
    }
    for ((a, r), u) in snap.agg.iter_mut().zip(agg_ref).zip(agg_up) {
        *a = r + u;
    }
}

/// Computes relevance scores from a shared (or momentum-averaged) model —
/// the quantity the attack ranks participants by, and the basis of utility
/// evaluation.
///
/// `user_emb` is the embedding the score is computed *with*: the sender's own
/// under full sharing, the adversary's fictive embedding under Share-less
/// (§IV-C), or `None` for models without user factors.
pub trait RelevanceScorer: Send + Sync {
    /// Catalog size.
    fn num_items(&self) -> u32;

    /// Length of the aggregatable parameter vector this scorer expects.
    fn agg_len(&self) -> usize;

    /// Dimensionality of the user embedding (0 if the model has none).
    fn user_emb_len(&self) -> usize;

    /// Scores the contiguous catalog id range `[start, start + out.len())`
    /// into `out` (higher = more relevant) — the one catalog-scoring method.
    /// A full-catalog score is `score_item_range(u, agg, 0, all)` with
    /// `all.len() == num_items()`; a streaming caller may instead walk the
    /// catalog in tiles and never materialize a catalog-length score
    /// vector. Item parameters are stored
    /// row-major by item id, so a contiguous range is a dense sub-matrix and
    /// implementations batch it through the vectorized kernels
    /// ([`crate::kernel::gemv`] for dot-product models).
    ///
    /// Each item's score depends only on that item's parameters, so
    /// concatenating the tiles of any split of the catalog equals one
    /// full-range call bit for bit, so a tiled caller ranks exactly as the
    /// attack's full-catalog evaluation does.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the range exceeds the catalog or the
    /// parameter slices have unexpected lengths.
    fn score_item_range(&self, user_emb: Option<&[f32]>, agg: &[f32], start: u32, out: &mut [f32]);

    /// Mean relevance over an item set — `Ŷ(Θ, V_target)` in the paper
    /// (0 for an empty set). Implementations score only the listed items,
    /// summing their scores into one accumulator in list order, so the result
    /// is bit-identical to averaging the matching [`Self::score_item_range`]
    /// outputs left to right. This is the Share-less attack's per-(model,
    /// target) hot path: GMF hoists `w = p_u ⊙ h` once per call and runs one
    /// body monomorphised at the paper dimension (d = 8), so there each item
    /// costs one fully unrolled row dot.
    fn mean_relevance(&self, user_emb: Option<&[f32]>, agg: &[f32], items: &[u32]) -> f32;

    /// Tile counterpart of [`Self::mean_relevance`]: the mean relevance of
    /// every query `(user_emb, items)` under each of up to
    /// [`crate::kernel::LANES`] models, written to
    /// `out[m * queries.len() + q]` for model `aggs[m]` and query
    /// `queries[q]`. Every output is bit-identical to
    /// `mean_relevance(user_emb, aggs[m], items)`, so how models are grouped
    /// into tiles never changes a score.
    ///
    /// This is the Share-less attack's scoring pass, where each target's
    /// fictive embedding scores every model. The default loops
    /// [`Self::mean_relevance`]; GMF lays the tile's item rows out
    /// model-minor once and then scores each target item for all models at
    /// once, one model per SIMD lane.
    ///
    /// # Panics
    ///
    /// Implementations may panic when given more than `LANES` models or when
    /// `out.len() != aggs.len() * queries.len()`, and wherever
    /// [`Self::mean_relevance`] would.
    fn mean_relevance_tile(
        &self,
        aggs: &[&[f32]],
        queries: &[(Option<&[f32]>, &[u32])],
        out: &mut [f32],
    ) {
        for (m, agg) in aggs.iter().enumerate() {
            for (q, &(user_emb, items)) in queries.iter().enumerate() {
                out[m * queries.len() + q] = self.mean_relevance(user_emb, agg, items);
            }
        }
    }

    /// Trains a fictive adversary user embedding that "likes" `target_items`,
    /// given public parameters `agg` (the Share-less adaptation of §IV-C).
    ///
    /// `warm_start` carries the embedding produced by the previous refresh
    /// against earlier public parameters, if any; implementations should
    /// continue from it (with a reduced epoch budget) instead of retraining
    /// from scratch — the item embeddings drift slowly between refreshes, so
    /// the previous solution is already close.
    ///
    /// Returns `None` for models without user factors.
    fn train_adversary_embedding(
        &self,
        agg: &[f32],
        target_items: &[u32],
        warm_start: Option<&[f32]>,
        rng: &mut StdRng,
    ) -> Option<Vec<f32>>;
}

/// The protocol-agnostic liveness/participation event both protocol
/// observers consume — one enum instead of the former
/// `RoundObserver::on_participants` / `GossipObserver::on_wake_set` /
/// `GossipObserver::node_available` trio, so dynamics adapters and attack
/// trackers stop special-casing the protocol they ride on.
#[derive(Debug)]
pub enum LivenessEvent<'a> {
    /// The round's acting set — FedAvg's participants or gossip's wake set.
    /// The mask starts all-`true`: neither protocol samples who acts, so the
    /// observers alone decide. They may clear entries to model availability
    /// (churn, stragglers, partial participation, device dropout); the
    /// protocol honors the final mask as-is.
    ActingSet {
        /// Round index.
        round: u64,
        /// The mutable mask (index = node).
        mask: &'a mut [bool],
    },
    /// Availability probe for one node about to act on scheduled protocol
    /// work (gossip consults it before a due view refresh: an offline device
    /// cannot re-sample peers, so clearing `available` defers the refresh to
    /// the node's next available round). Observers may clear `available`;
    /// probes are only issued for work that is actually due.
    Probe {
        /// Round index.
        round: u64,
        /// The node being probed.
        node: u32,
        /// Availability answer (starts `true`; observers may clear).
        available: &'a mut bool,
    },
}

/// Uniform mid-run state capture: one trait the checkpoint codec drives
/// instead of per-type `export_state`/`restore_state` pairs. `State` is the
/// serializable snapshot type the codec already knows how to write.
pub trait Checkpointable {
    /// The serializable state snapshot.
    type State;

    /// Captures the current state (cheap, clone-based).
    fn export_state(&self) -> Self::State;

    /// Restores a previously captured state in place.
    ///
    /// # Errors
    ///
    /// Names the first part of `state` that does not fit the receiver (wrong
    /// node count, malformed tables), leaving the receiver unchanged.
    fn restore_state(&mut self, state: Self::State) -> Result<(), String>;
}

/// The round-engine selector the `step_evented` forwards take.
///
/// Exists only for the benchmark tracer (`perfbench/tracer`), which still
/// calls `step_evented(&mut obs, DeliveryPolicy::Lockstep)`; goes away in
/// the next benchmark change, together with those forwards.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryPolicy {
    /// The fused round loop — the only engine.
    #[default]
    Lockstep,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_model_len_counts_both_parts() {
        let m = SharedModel {
            owner: UserId::new(0),
            round: 1,
            owner_emb: Some(vec![0.0; 4]),
            agg: vec![0.0; 10],
        };
        assert_eq!(m.len(), 14);
        assert!(!m.is_empty());
        let m2 = SharedModel { owner_emb: None, ..m };
        assert_eq!(m2.len(), 10);
    }

    #[test]
    fn sharing_policy_accessors() {
        assert!(SharingPolicy::Full.shares_user_embedding());
        assert_eq!(SharingPolicy::Full.tau(), 0.0);
        let sl = SharingPolicy::ShareLess { tau: 0.3 };
        assert!(!sl.shares_user_embedding());
        assert!((sl.tau() - 0.3).abs() < 1e-7);
    }
}
