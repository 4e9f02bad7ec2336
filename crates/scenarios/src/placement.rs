//! Adaptive traffic-aware sybil placement.
//!
//! The paper's gossip coalition sits on evenly spaced node ids. The
//! [`PlacementEngine`] models a strictly stronger adversary: during a
//! warm-up window it passively observes traffic — per-node delivery counts
//! and view-membership frequency from [`cia_gossip::TrafficCounters`], plus
//! its own log of which distinct senders each position heard — and then
//! relocates the coalition's sybil identities onto the top-scoring
//! positions before the attack proper begins:
//!
//! * [`PlacementStrategy::Degree`] ranks positions by accumulated view
//!   in-degree (the expected-delivery rate of a position), ties broken by
//!   delivered-message count, then by id.
//! * [`PlacementStrategy::CoverageGreedy`] greedily picks positions
//!   maximizing the number of *distinct* senders the coalition would have
//!   observed — max-coverage over the warm-up delivery log, the observation
//!   analogue of the per-community `upper_bound_online` bound. Once no
//!   candidate adds new senders, the remaining seats fall back to degree
//!   order.
//!
//! Everything is deterministic given the spec and seed: scores come from
//! the (deterministic) simulation, and every tie-break ends at the node id.
//! The engine's cross-round state ([`PlacementState`]) is part of every
//! checkpoint, so a run killed on either side of the relocation boundary
//! resumes onto the identical decision.

use crate::spec::PlacementStrategy;
use cia_gossip::{GossipObserver, GossipRoundStats, TrafficCounters};
use cia_models::SharedModel;

/// Checkpointable slice of a [`PlacementEngine`] (strategy, warm-up window
/// and coalition size are reconstructed from the spec).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementState {
    /// Whether the relocation has fired.
    pub relocated: bool,
    /// The coalition's current node ids, ascending.
    pub members: Vec<u32>,
    /// Warm-up delivery log: per receiver, the distinct senders observed so
    /// far (sorted). Cleared after relocation.
    pub seen: Vec<Vec<u32>>,
}

/// The placement decision process for one scenario run.
pub struct PlacementEngine {
    strategy: PlacementStrategy,
    warmup: u64,
    coalition: usize,
    members: Vec<u32>,
    relocated: bool,
    /// Per receiver: sorted distinct senders observed during warm-up. Empty
    /// when the engine is inert (static strategy or no coalition).
    seen: Vec<Vec<u32>>,
}

impl PlacementEngine {
    /// Creates the engine. `members` is the initial (static) placement; an
    /// engine with a static strategy or an empty coalition is inert.
    pub fn new(
        strategy: PlacementStrategy,
        warmup: u64,
        members: Vec<u32>,
        num_nodes: usize,
    ) -> Self {
        let active = strategy.is_adaptive() && !members.is_empty();
        PlacementEngine {
            strategy,
            warmup,
            coalition: members.len(),
            members,
            relocated: false,
            seen: if active { vec![Vec::new(); num_nodes] } else { Vec::new() },
        }
    }

    /// Whether the relocation has fired.
    pub fn relocated(&self) -> bool {
        self.relocated
    }

    /// The coalition's current node ids.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Whether the engine is still collecting the warm-up delivery log.
    fn tracking(&self) -> bool {
        !self.seen.is_empty() && !self.relocated
    }

    /// Records one routed delivery into the warm-up log (no-op once the
    /// warm-up is over or the engine is inert).
    pub fn observe_delivery(&mut self, receiver: u32, sender: u32) {
        if !self.tracking() {
            return;
        }
        let log = &mut self.seen[receiver as usize];
        if let Err(at) = log.binary_search(&sender) {
            log.insert(at, sender);
        }
    }

    /// Fires the relocation when the warm-up window has elapsed. Returns the
    /// new membership exactly once; a warm-up at or beyond the horizon never
    /// fires (the run degrades to static placement).
    pub fn maybe_relocate(&mut self, round: u64, traffic: &TrafficCounters) -> Option<&[u32]> {
        if self.seen.is_empty() || self.relocated || round < self.warmup {
            return None;
        }
        self.members = match self.strategy {
            PlacementStrategy::Static => unreachable!("inert engines have no log"),
            PlacementStrategy::Degree => {
                let mut ranked = degree_order(traffic);
                ranked.truncate(self.coalition);
                ranked.sort_unstable();
                ranked
            }
            PlacementStrategy::CoverageGreedy => greedy_cover(&self.seen, traffic, self.coalition),
        };
        self.relocated = true;
        self.seen = Vec::new();
        Some(&self.members)
    }

    /// Snapshot of the cross-round state for checkpoint/resume.
    pub fn export_state(&self) -> PlacementState {
        PlacementState {
            relocated: self.relocated,
            members: self.members.clone(),
            seen: self.seen.clone(),
        }
    }

    /// Restores a state captured by [`PlacementEngine::export_state`].
    ///
    /// # Errors
    ///
    /// Leaves the engine unchanged and names the misfit: `placement members`
    /// when they are not the spec's coalition size in ascending order (a
    /// mismatch means the state belongs to a different run), `placement
    /// delivery log` when the log does not fit the engine (inert engines
    /// carry none).
    pub fn restore_state(&mut self, state: PlacementState) -> Result<(), String> {
        let ascending = state.members.windows(2).all(|w| w[0] < w[1]);
        if state.members.len() != self.coalition || !ascending {
            return Err("placement members".to_string());
        }
        let log_fits = if self.seen.is_empty() {
            state.seen.is_empty()
        } else {
            state.relocated || state.seen.len() == self.seen.len()
        };
        if !log_fits {
            return Err("placement delivery log".to_string());
        }
        self.relocated = state.relocated;
        self.members = state.members;
        if state.relocated {
            self.seen = Vec::new();
        } else if !self.seen.is_empty() {
            self.seen = state.seen;
        }
        Ok(())
    }
}

/// All node ids in descending traffic order: accumulated view in-degree,
/// ties by delivered-message count, then ascending id.
fn degree_order(traffic: &TrafficCounters) -> Vec<u32> {
    // cia-lint: allow(D05, one in-degree per gossip node, and gossip node ids are u32)
    let mut ids: Vec<u32> = (0..traffic.view_in_degree.len() as u32).collect();
    ids.sort_by_key(|&v| {
        (
            std::cmp::Reverse(traffic.view_in_degree[v as usize]),
            std::cmp::Reverse(traffic.received[v as usize]),
            v,
        )
    });
    ids
}

/// Greedy max-coverage over the warm-up delivery log: each seat takes the
/// position adding the most unseen senders (ties by degree order); once no
/// position adds anything, the rest follow degree order.
fn greedy_cover(seen: &[Vec<u32>], traffic: &TrafficCounters, coalition: usize) -> Vec<u32> {
    let order = degree_order(traffic);
    let mut covered = vec![false; seen.len()];
    let mut chosen = vec![false; seen.len()];
    let mut members = Vec::with_capacity(coalition);
    for _ in 0..coalition.min(seen.len()) {
        let mut best: Option<(usize, u32)> = None;
        for &v in &order {
            if chosen[v as usize] {
                continue;
            }
            let gain = seen[v as usize].iter().filter(|&&s| !covered[s as usize]).count();
            // `order` is the tie-break: the first candidate at a given gain
            // wins, so strictly-greater keeps degree order on ties.
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, v));
            }
        }
        let Some((gain, v)) = best else { break };
        if gain == 0 {
            // Coverage is exhausted; fill the remaining seats by degree.
            break;
        }
        chosen[v as usize] = true;
        members.push(v);
        for &s in &seen[v as usize] {
            covered[s as usize] = true;
        }
    }
    for &v in &order {
        if members.len() >= coalition {
            break;
        }
        if !chosen[v as usize] {
            chosen[v as usize] = true;
            members.push(v);
        }
    }
    members.sort_unstable();
    members
}

/// Observer adapter feeding routed deliveries into the engine's warm-up log
/// before forwarding them to the attack.
pub struct PlacementObserver<'a, O: GossipObserver + ?Sized> {
    /// The wrapped observer (the attack engine).
    pub inner: &'a mut O,
    /// The placement decision process.
    pub engine: &'a mut PlacementEngine,
}

impl<O: GossipObserver + ?Sized> GossipObserver for PlacementObserver<'_, O> {
    fn on_round_start(&mut self, round: u64) {
        self.inner.on_round_start(round);
    }

    fn on_liveness(&mut self, event: cia_models::LivenessEvent<'_>) {
        self.inner.on_liveness(event);
    }

    fn on_delivery(&mut self, round: u64, receiver: cia_data::UserId, model: &SharedModel) {
        self.engine.observe_delivery(receiver.raw(), model.owner.raw());
        self.inner.on_delivery(round, receiver, model);
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        self.inner.on_round_end(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(view_in_degree: &[u64], received: &[u64]) -> TrafficCounters {
        TrafficCounters { received: received.to_vec(), view_in_degree: view_in_degree.to_vec() }
    }

    #[test]
    fn degree_ranking_is_deterministic_under_ties() {
        let t = traffic(&[3, 7, 7, 1, 7], &[0, 2, 2, 0, 9]);
        // 1, 2 and 4 tie on in-degree; 4 wins on received, then id order.
        assert_eq!(degree_order(&t), vec![4, 1, 2, 0, 3]);
    }

    #[test]
    fn degree_strategy_takes_top_positions() {
        let mut engine = PlacementEngine::new(PlacementStrategy::Degree, 5, vec![0, 2], 6);
        let t = traffic(&[1, 9, 0, 4, 2, 0], &[0; 6]);
        assert!(engine.maybe_relocate(4, &t).is_none(), "warm-up still running");
        let members = engine.maybe_relocate(5, &t).unwrap().to_vec();
        assert_eq!(members, vec![1, 3]);
        assert!(engine.relocated());
        // The relocation fires exactly once.
        assert!(engine.maybe_relocate(6, &t).is_none());
    }

    #[test]
    fn greedy_prefers_complementary_coverage_over_raw_degree() {
        // Positions 0 and 1 lead on degree but hear the same three senders;
        // position 4 hears two senders nobody else does. Degree would pick
        // {0, 1}; greedy must pick 0 (best cover) then 4 (complementary).
        let mut engine = PlacementEngine::new(PlacementStrategy::CoverageGreedy, 1, vec![0, 1], 6);
        for (receiver, senders) in [(0u32, vec![2u32, 3, 5]), (1, vec![2, 3, 5]), (4, vec![0, 1])] {
            for s in senders {
                engine.observe_delivery(receiver, s);
            }
        }
        let t = traffic(&[9, 8, 0, 0, 1, 0], &[0; 6]);
        let members = engine.maybe_relocate(1, &t).unwrap().to_vec();
        assert_eq!(members, vec![0, 4]);
    }

    #[test]
    fn greedy_falls_back_to_degree_when_coverage_dries_up() {
        // Only position 2 heard anything; the second seat goes to the top
        // remaining degree node.
        let mut engine = PlacementEngine::new(PlacementStrategy::CoverageGreedy, 1, vec![0, 1], 5);
        engine.observe_delivery(2, 4);
        let t = traffic(&[5, 1, 0, 7, 2], &[0; 5]);
        assert_eq!(engine.maybe_relocate(1, &t).unwrap(), &[2, 3]);
    }

    #[test]
    fn static_engine_is_inert() {
        let mut engine = PlacementEngine::new(PlacementStrategy::Static, 1, vec![0, 3], 6);
        engine.observe_delivery(1, 2); // no-op
        let t = traffic(&[9; 6], &[9; 6]);
        assert!(engine.maybe_relocate(100, &t).is_none());
        assert_eq!(engine.members(), &[0, 3]);
        assert!(engine.export_state().seen.is_empty());
    }

    #[test]
    fn delivery_log_stays_sorted_and_distinct() {
        let mut engine = PlacementEngine::new(PlacementStrategy::CoverageGreedy, 9, vec![0], 4);
        for s in [3u32, 1, 3, 2, 1] {
            engine.observe_delivery(0, s);
        }
        assert_eq!(engine.export_state().seen[0], vec![1, 2, 3]);
    }

    #[test]
    fn state_roundtrips_across_the_relocation_boundary() {
        let t = traffic(&[1, 9, 0, 4], &[0; 4]);
        // Before the boundary: the log travels with the state.
        let mut a = PlacementEngine::new(PlacementStrategy::Degree, 3, vec![0, 2], 4);
        a.observe_delivery(1, 0);
        let mut b = PlacementEngine::new(PlacementStrategy::Degree, 3, vec![0, 2], 4);
        b.restore_state(a.export_state()).unwrap();
        assert_eq!(b.export_state(), a.export_state());
        // Both fire the same relocation.
        assert_eq!(
            a.maybe_relocate(3, &t).unwrap().to_vec(),
            b.maybe_relocate(3, &t).unwrap().to_vec()
        );
        // After the boundary: restoring a relocated state re-applies the
        // membership and drops the log.
        let mut c = PlacementEngine::new(PlacementStrategy::Degree, 3, vec![0, 2], 4);
        c.restore_state(a.export_state()).unwrap();
        assert!(c.relocated());
        assert_eq!(c.members(), a.members());
        assert!(c.maybe_relocate(9, &t).is_none());
    }
}
