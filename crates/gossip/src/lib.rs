//! Gossip learning simulation: Rand-Gossip and Pers-Gossip over dynamic
//! P-out-regular communication graphs.
//!
//! Reproduces the paper's decentralized setting (§III-C): each user keeps a
//! local model; at every round awake nodes *cast* their model to one randomly
//! sampled out-neighbor, aggregate whatever arrived in their inbox since the
//! last wake, and take one local training epoch. Every node holds `P = 3`
//! out-neighbors, and views are refreshed by a random peer-sampling service
//! at intervals drawn from Exp(0.1) \[19\]; both are the paper's fixed
//! constants (§V-B). Pers-Gossip \[5\] additionally retains neighbors whose
//! models performed well locally, exploring randomly with a configurable
//! ratio (0.4 in the paper). Who wakes is the observer's call, through
//! [`LivenessEvent::ActingSet`].
//!
//! The [`GossipObserver`] hook exposes every model delivery — the vantage
//! point of a gossip adversary, who sees exactly the models delivered to the
//! node(s) she controls (§IV-A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod sim;

pub use sim::{
    GossipConfig, GossipObserver, GossipProtocol, GossipRoundStats, GossipSim, GossipSimState,
    NullGossipObserver, TrafficCounters,
};

// The cross-protocol abstractions this crate's API surfaces (observer
// liveness events, the export/restore trait) and the selector the
// `step_evented` forward takes.
pub use cia_models::{Checkpointable, DeliveryPolicy, LivenessEvent};
