//! Recommendation models and the participant abstraction shared by the
//! collaborative-learning protocols.
//!
//! The paper evaluates two classical recommenders (§V-B):
//!
//! * **GMF** — generalized matrix factorization ([`GmfSpec`]), scoring
//!   `ŷ_ui = σ(h · (p_u ⊙ q_i))`, trained with binary cross-entropy and
//!   negative sampling;
//! * **PRME** — personalized ranking metric embedding ([`PrmeSpec`]), scoring
//!   by (negative) distance in two metric embedding spaces, trained with a
//!   pairwise ranking loss over check-in successor pairs.
//!
//! Both run through **one factor-model client**, [`FactorClient`], with a
//! single [`Participant`] implementation over a *row region* of `rows × d`
//! floats (GMF's `|V|` item rows; PRME's preference then sequential rows)
//! and a dense *tail* (GMF's `h`; empty for PRME). Each model supplies only
//! its scorer, its local epoch and its own state through [`FactorModel`].
//!
//! A small [`MlpSpec`] multi-layer perceptron supports the MNIST universality
//! experiment (§VIII-E) and the AIA gradient classifier (§VIII-C2).
//!
//! All models expose their state as a *flat `f32` parameter vector*, split
//! into an aggregatable public part (item embeddings, output layers) and the
//! owner's private user embedding. Aggregation, momentum (the attack's
//! Eq. 4, one row per sender of a single [`MomentumTable`] slab, which
//! FedAvg's workers fold through [`MomentumRow`] views), DP
//! clipping/noising and the Share-less policy are all linear algebra over
//! these vectors — see [`params`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod factor;
mod gmf;
pub mod kernel;
mod metrics;
mod mlp;
mod momentum;
pub mod params;
mod participant;
mod prme;

/// Data-parallel helpers, re-exported from `cia-data` (they moved there so
/// the similarity ground truth can parallelize without a dependency cycle).
pub use cia_data::parallel;

pub use factor::{FactorClient, FactorModel};
pub use gmf::{GmfClient, GmfSpec};
pub use metrics::{f1_at_k, hit_ratio, rank_of_primary};
pub use mlp::{Mlp, MlpClient, MlpHyper, MlpScratch, MlpSpec};
pub use momentum::{MomentumRow, MomentumTable};
pub use participant::{
    apply_update_transform, client_id_and_seed, DeliveryPolicy, LivenessEvent, Participant,
    RelevanceScorer, SharedModel, SharingPolicy, UpdateTransform,
};
pub use prme::{PrmeClient, PrmeSpec};
