//! The **Community Inference Attack (CIA)** — the paper's primary
//! contribution — together with the proxy attacks it is compared against.
//!
//! CIA is a *comparison-based* attack: an honest-but-curious adversary
//! (the server in FL, one or several nodes in GL) scores every received model
//! against a target item set `V_target` and ranks participants by relevance,
//! predicting the `K` highest as the community of interest (§IV). Model aging
//! and gossip temporality are smoothed with a per-sender parameter momentum
//! `v_u ← β·v_u + (1−β)·Θ_u` (Eq. 4).
//!
//! Components:
//!
//! * [`MomentumCia`] — the one momentum attack of Algorithms 1 and 2. It
//!   keeps every sender's Eq. 4 model as a row of one [`MomentumTable`]
//!   slab; its vantage parameter decides which models reach the adversary:
//!   * [`FlCia`] — the FL server ([`ServerVantage`]), implemented as a
//!     [`cia_federated::RoundObserver`] observing every sampled upload;
//!   * [`GlCiaCoalition`] — a single gossip adversary or a colluding
//!     coalition ([`CoalitionVantage`]) that multicasts received models,
//!     implemented as a [`cia_gossip::GossipObserver`];
//! * [`GlCiaAllPlacements`] — the all-placements sweep used for Table III,
//!   applying the momentum to relevance *scores*, because per-(observer,
//!   sender) parameter momentum for every placement at once would need
//!   O(N²) model copies;
//! * [`ItemSetEvaluator`] — relevance of a model for item-set targets,
//!   including the Share-less adaptation that trains a fictive adversary
//!   embedding (§IV-C);
//! * [`MiaCommunityAttack`] — the entropy-threshold membership-inference
//!   proxy (§VIII-C1);
//! * [`AiaCommunityAttack`] — the gradient-classifier attribute-inference
//!   proxy (§VIII-C2);
//! * [`metrics`] — attack accuracy (Eq. 6), Max AAC, Best-10% AAC, random
//!   and upper bounds;
//! * [`complexity`] — the temporal cost model of Table IX.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aia;
pub mod complexity;
mod evaluator;
mod fl;
mod gl;
pub mod metrics;
mod mia;

pub use aia::{AiaCommunityAttack, AIA_M_NONMEMBER, AIA_N_MEMBER};
/// The per-sender Eq. 4 momentum table (re-exported): it lives in
/// `cia-models`, where FedAvg's training workers can fold its rows.
pub use cia_models::MomentumTable;
pub use evaluator::{ItemSetEvaluator, RelevanceEvaluator};
pub use fl::{CiaConfig, FlCia, MomentumCia, ServerVantage};
pub use gl::{CoalitionVantage, GlCiaAllPlacements, GlCiaCoalition};
pub use metrics::{AttackOutcome, AttackTracker, RoundPoint};
pub use mia::{membership_entropy, MiaCommunityAttack, MiaConfig};

/// The observability layer (re-exported): phase spans, the typed counter
/// registry and log₂ latency histograms every simulation reports into.
pub use cia_obs as obs;
pub use cia_obs::{Counter, Histogram, Metric, Recorder, SpanRec, TraceChunk};

/// The protocol-agnostic liveness events observers receive (re-exported).
pub use cia_models::LivenessEvent;
