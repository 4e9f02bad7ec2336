//! **community-inference** — a reproduction of *Inferring Communities of
//! Interest in Collaborative Learning-based Recommender Systems* (ICDCS
//! 2025).
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! * [`data`] — datasets, synthetic community-structured generators, splits;
//! * [`models`] — GMF, PRME, the MLP, flat parameter algebra;
//! * [`defenses`] — DP-SGD with RDP accounting, the Share-less policy;
//! * [`federated`] — the FedAvg simulation with adversary observer hooks;
//! * [`gossip`] — Rand-Gossip and Pers-Gossip over dynamic P-regular graphs;
//! * [`attack`] — the Community Inference Attack and the MIA/AIA proxies;
//! * [`scenarios`] — the declarative scenario engine: spec-driven suites
//!   with participant dynamics (churn, stragglers, sybils) and resumable
//!   runs (`cargo run --release -p cia-scenarios --bin scenario -- run`);
//! * [`experiments`] — every table and figure of the paper, named in
//!   [`experiments::ARTIFACTS`]; the recsys ones are scenario runs.
//!
//! # Quickstart
//!
//! Run the bundled examples:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example health_community
//! cargo run --release --example gossip_colluders
//! cargo run --release --example defense_tradeoff
//! cargo run --release --example mnist_universality
//! ```
//!
//! or regenerate a paper artifact:
//!
//! ```text
//! cargo run --release -p cia-experiments --bin repro -- table2 --scale small
//! ```
//!
//! # Minimal attack in code
//!
//! ```
//! use community_inference::prelude::*;
//!
//! // 1. A community-structured dataset and its ground truth.
//! let data = SyntheticConfig::builder()
//!     .users(24).items(100).communities(4).interactions_per_user(10)
//!     .seed(7).build().generate();
//! let split = LeaveOneOut::new(&data, 20, 7).unwrap();
//! let truth = GroundTruth::from_train_sets(split.train_sets(), 4);
//!
//! // 2. Federated clients.
//! let spec = GmfSpec::new(100, 8);
//! let clients: Vec<_> = split.train_sets().iter().enumerate()
//!     .map(|(u, items)| spec.build_client(
//!         UserId::from_index(u), items.clone(), SharingPolicy::Full, u as u64))
//!     .collect();
//!
//! // 3. The server-side adversary.
//! let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
//! let truths: Vec<_> = (0..24).map(|u| truth.community_of(UserId::new(u)).to_vec()).collect();
//! let owners: Vec<_> = (0..24).map(|u| Some(UserId::new(u))).collect();
//! let mut attack = FlCia::new(
//!     CiaConfig { k: 4, beta: 0.99, eval_every: 2, seed: 0 },
//!     evaluator, 24, truths, owners);
//!
//! // 4. Train and attack.
//! let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 4, ..Default::default() });
//! sim.run(&mut attack);
//! let outcome = attack.outcome();
//! assert!(outcome.max_aac >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cia_core as attack;
pub use cia_data as data;
pub use cia_defenses as defenses;
pub use cia_experiments as experiments;
pub use cia_federated as federated;
pub use cia_gossip as gossip;
pub use cia_models as models;
pub use cia_scenarios as scenarios;

/// One-stop imports for the common attack workflow.
pub mod prelude {
    pub use cia_core::{
        AiaCommunityAttack, AttackOutcome, CiaConfig, FlCia, GlCiaAllPlacements, GlCiaCoalition,
        ItemSetEvaluator, MiaCommunityAttack, MiaConfig, RelevanceEvaluator,
    };
    pub use cia_data::presets::{Preset, Scale};
    pub use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig, UserId};
    pub use cia_defenses::{DpConfig, DpMechanism, RdpAccountant};
    pub use cia_federated::{FedAvg, FedAvgConfig, RoundObserver};
    pub use cia_gossip::{GossipConfig, GossipProtocol, GossipSim};
    pub use cia_models::{
        GmfSpec, Participant, PrmeSpec, RelevanceScorer, SharedModel, SharingPolicy,
    };
}
