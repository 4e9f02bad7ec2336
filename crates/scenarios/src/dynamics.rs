//! The participant-dynamics layer: turns a [`DynamicsSpec`] into a
//! per-round availability mask and threads it through the protocols'
//! shared observer seam ([`RoundObserver::on_liveness`] /
//! [`GossipObserver::on_liveness`], both carrying
//! [`cia_models::LivenessEvent`]) — the training loops never learn that
//! the population is moving.
//!
//! The process is deterministic: round `t`'s transitions are drawn from an
//! RNG seeded by `(seed, t)`, and the only cross-round state is the online
//! bitmap and the straggler timers — both tiny, both checkpointable.

use crate::spec::DynamicsSpec;
use cia_federated::RoundObserver;
use cia_gossip::GossipObserver;
use cia_models::{Checkpointable, LivenessEvent, MomentumState, SharedModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The evolving availability state for one scenario's population.
pub struct ParticipantDynamics {
    spec: DynamicsSpec,
    seed: u64,
    /// Churn state: whether each participant is currently online.
    online: Vec<bool>,
    /// Straggler membership (fixed at construction, deterministically).
    is_straggler: Vec<bool>,
    /// First round at which each straggler may act again.
    straggler_until: Vec<u64>,
    /// Sybil membership (fixed; sybils are always available).
    sybil: Vec<bool>,
}

/// Checkpointable slice of [`ParticipantDynamics`] (membership tables are
/// reconstructed deterministically from the spec and seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicsState {
    /// Online bitmap.
    pub online: Vec<bool>,
    /// Straggler timers.
    pub straggler_until: Vec<u64>,
}

impl ParticipantDynamics {
    /// Initializes the population state for `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty sybil coalition covers the whole population
    /// (`spec.sybils >= n`); the runner refuses such a spec by name first.
    pub fn new(spec: &DynamicsSpec, n: usize, seed: u64) -> Self {
        assert!(spec.sybils == 0 || spec.sybils < n, "sybils must be fewer than the participants");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD11A_0001);
        // Sybils: evenly spaced ids, the same placement rule the coalition
        // experiments use.
        let mut sybil = vec![false; n];
        for i in 0..spec.sybils {
            sybil[i * n / spec.sybils] = true;
        }
        // Initial online set: exact fraction via a deterministic shuffle.
        let mut online = vec![true; n];
        if spec.initial_online < 1.0 {
            let offline = n - ((n as f64 * spec.initial_online).round() as usize).clamp(1, n);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rng);
            for &i in idx.iter().take(offline) {
                online[i] = false;
            }
        }
        // Stragglers: exact fraction, again by shuffle (sybils never lag).
        let mut is_straggler = vec![false; n];
        if spec.straggler_fraction > 0.0 {
            let count = ((n as f64 * spec.straggler_fraction).round() as usize).min(n);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rng);
            for &i in idx.iter().filter(|&&i| !sybil[i]).take(count) {
                is_straggler[i] = true;
            }
        }
        for (o, &s) in online.iter_mut().zip(&sybil) {
            if s {
                *o = true;
            }
        }
        ParticipantDynamics {
            spec: *spec,
            seed,
            online,
            is_straggler,
            straggler_until: vec![0; n],
            sybil,
        }
    }

    /// The sybil coalition's node ids (attack construction).
    pub fn sybil_members(&self) -> Vec<u32> {
        // cia-lint: allow(D05, i indexes the per-participant sybil flags; participant ids are u32)
        self.sybil.iter().enumerate().filter_map(|(i, &s)| s.then_some(i as u32)).collect()
    }

    /// Moves the always-online sybil coalition onto new node ids (adaptive
    /// placement relocation). Former sybil nodes return to normal churn
    /// starting from an online state — they were reachable while
    /// adversary-operated — and the new positions are forced online
    /// immediately.
    ///
    /// On checkpoint resume this must be re-applied *before*
    /// [`ParticipantDynamics::restore_state`], so the restored online bitmap
    /// (which already reflects post-relocation churn) wins.
    pub fn set_sybil_members(&mut self, members: &[u32]) {
        for (i, s) in self.sybil.iter_mut().enumerate() {
            if *s {
                self.online[i] = true;
            }
            *s = false;
        }
        for &m in members {
            self.sybil[m as usize] = true;
            self.online[m as usize] = true;
        }
    }

    /// Participants currently online (reported in JSONL records).
    pub fn online_count(&self) -> usize {
        self.online.iter().filter(|&&o| o).count()
    }

    /// Whether participant `i` is currently online (sybils always are). The
    /// state reflects the last [`ParticipantDynamics::apply`] call — queried
    /// at the top of round `t`, it answers for round `t - 1`, which is what
    /// a deferred-action decision (e.g. a gossip view refresh) wants: "was
    /// this node reachable at its last opportunity".
    pub fn is_online(&self, i: usize) -> bool {
        self.sybil.get(i).copied().unwrap_or(false) || self.online.get(i).copied().unwrap_or(false)
    }

    /// Advances the population to round `round` and intersects `mask` with
    /// availability. Must be called exactly once per round — both protocol
    /// hooks fire exactly once per round.
    pub fn apply(&mut self, round: u64, mask: &mut [bool]) {
        assert_eq!(mask.len(), self.online.len(), "one mask entry per participant");
        let spec = self.spec;
        let mut rng = StdRng::seed_from_u64(self.seed ^ round.wrapping_mul(0x9E6D_52A3_B1C4_85F7));
        for (i, slot) in mask.iter_mut().enumerate() {
            if self.sybil[i] {
                // Sybils are adversary-operated: always online, never
                // straggling, always participating.
                continue;
            }
            // Churn transition for this round.
            if self.online[i] {
                if spec.leave_prob > 0.0 && rng.gen_bool(spec.leave_prob) {
                    self.online[i] = false;
                }
            } else if rng.gen_bool(spec.join_prob.clamp(0.0, 1.0)) {
                self.online[i] = true;
            }
            let mut available = self.online[i];
            // Straggler timer.
            if available && self.is_straggler[i] && round < self.straggler_until[i] {
                available = false;
            }
            // Partial-participation sampling on top.
            if available && spec.participation < 1.0 && !rng.gen_bool(spec.participation) {
                available = false;
            }
            *slot &= available;
            // A straggler that acts this round draws its next delay.
            if *slot && self.is_straggler[i] {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let delay = (-u.ln() * spec.straggler_mean_delay).ceil().max(1.0) as u64;
                self.straggler_until[i] = round.saturating_add(1).saturating_add(delay);
            }
        }
    }
}

/// Snapshot/restore of the cross-round state for checkpoint/resume.
/// Restoring refuses state that is not aligned with the population size.
impl Checkpointable for ParticipantDynamics {
    type State = DynamicsState;

    fn export_state(&self) -> DynamicsState {
        DynamicsState { online: self.online.clone(), straggler_until: self.straggler_until.clone() }
    }

    fn restore_state(&mut self, state: DynamicsState) -> Result<(), String> {
        if state.online.len() != self.online.len() {
            return Err("online bitmap".to_string());
        }
        if state.straggler_until.len() != self.straggler_until.len() {
            return Err("straggler timer table".to_string());
        }
        self.online = state.online;
        self.straggler_until = state.straggler_until;
        Ok(())
    }
}

/// Adapter threading [`ParticipantDynamics`] into an FL run: availability is
/// applied to the acting set delivered through
/// [`RoundObserver::on_liveness`], every other callback is forwarded to the
/// inner observer (typically the attack).
pub struct FlDynamics<'a, O: RoundObserver> {
    /// The wrapped observer.
    pub inner: &'a mut O,
    /// The population state.
    pub dynamics: &'a mut ParticipantDynamics,
}

impl<O: RoundObserver> RoundObserver for FlDynamics<'_, O> {
    fn on_round_start(&mut self, round: u64) {
        self.inner.on_round_start(round);
    }

    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        match event {
            LivenessEvent::ActingSet { round, mask } => {
                self.dynamics.apply(round, mask);
                self.inner.on_liveness(LivenessEvent::ActingSet { round, mask });
            }
            other => self.inner.on_liveness(other),
        }
    }

    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        self.inner.on_global(round, global_agg);
    }

    fn on_client_model(&mut self, model: &SharedModel) {
        self.inner.on_client_model(model);
    }

    fn momentum_table(&mut self) -> Option<(f32, &mut [Option<MomentumState>])> {
        self.inner.momentum_table()
    }

    fn observes_models(&self) -> bool {
        self.inner.observes_models()
    }

    fn on_round_end(&mut self, stats: &cia_federated::RoundStats) {
        self.inner.on_round_end(stats);
    }
}

/// Adapter threading [`ParticipantDynamics`] into a gossip run through
/// [`GossipObserver::on_liveness`]: the wake set is intersected with
/// availability, and availability probes (view-refresh deferral) answer from
/// the churn bitmap.
pub struct GlDynamics<'a, O: GossipObserver> {
    /// The wrapped observer.
    pub inner: &'a mut O,
    /// The population state.
    pub dynamics: &'a mut ParticipantDynamics,
}

impl<O: GossipObserver> GossipObserver for GlDynamics<'_, O> {
    fn on_round_start(&mut self, round: u64) {
        self.inner.on_round_start(round);
    }

    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        match event {
            LivenessEvent::ActingSet { round, mask } => {
                self.dynamics.apply(round, mask);
                self.inner.on_liveness(LivenessEvent::ActingSet { round, mask });
            }
            LivenessEvent::Probe { round, node, available } => {
                // Offline nodes defer their view refreshes (and keep their
                // Pers-Gossip `heard` evidence) until they rejoin.
                if !self.dynamics.is_online(node as usize) {
                    *available = false;
                }
                self.inner.on_liveness(LivenessEvent::Probe { round, node, available });
            }
        }
    }

    fn on_delivery(&mut self, round: u64, receiver: cia_data::UserId, model: &SharedModel) {
        self.inner.on_delivery(round, receiver, model);
    }

    fn on_round_end(&mut self, stats: &cia_gossip::GossipRoundStats) {
        self.inner.on_round_end(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DynamicsSpec;

    fn churn_spec() -> DynamicsSpec {
        DynamicsSpec {
            leave_prob: 0.05,
            join_prob: 0.2,
            initial_online: 0.9,
            ..DynamicsSpec::default()
        }
    }

    #[test]
    fn static_spec_is_identity() {
        let mut dynamics = ParticipantDynamics::new(&DynamicsSpec::default(), 30, 1);
        for t in 0..10 {
            let mut mask = vec![true; 30];
            dynamics.apply(t, &mut mask);
            assert!(mask.iter().all(|&m| m), "round {t}");
        }
    }

    #[test]
    fn churn_hovers_near_stationary_fraction() {
        let mut dynamics = ParticipantDynamics::new(&churn_spec(), 200, 3);
        let mut online_sum = 0usize;
        let rounds = 200;
        for t in 0..rounds {
            let mut mask = vec![true; 200];
            dynamics.apply(t, &mut mask);
            online_sum += mask.iter().filter(|&&m| m).count();
        }
        // Stationary offline fraction = 0.05/(0.05+0.2) = 20%.
        let mean_online = online_sum as f64 / (rounds as f64 * 200.0);
        assert!(
            (mean_online - 0.8).abs() < 0.05,
            "mean online fraction {mean_online} far from 0.8"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut d = ParticipantDynamics::new(&churn_spec(), 50, seed);
            let mut all = Vec::new();
            for t in 0..20 {
                let mut mask = vec![true; 50];
                d.apply(t, &mut mask);
                all.push(mask);
            }
            all
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn stragglers_sit_out_after_acting() {
        let spec = DynamicsSpec {
            straggler_fraction: 1.0,
            straggler_mean_delay: 5.0,
            ..DynamicsSpec::default()
        };
        let mut dynamics = ParticipantDynamics::new(&spec, 40, 2);
        let mut acted = vec![0usize; 40];
        for t in 0..30 {
            let mut mask = vec![true; 40];
            dynamics.apply(t, &mut mask);
            for (i, &m) in mask.iter().enumerate() {
                if m {
                    acted[i] += 1;
                }
            }
        }
        // With a mean delay of 5, every straggler acts roughly every ~6
        // rounds — far fewer than all 30, more than none.
        assert!(acted.iter().all(|&a| a > 0 && a < 15), "{acted:?}");
    }

    #[test]
    fn sybils_are_always_available() {
        let spec = DynamicsSpec {
            leave_prob: 0.9,
            join_prob: 0.05,
            initial_online: 0.5,
            sybils: 4,
            ..DynamicsSpec::default()
        };
        let mut dynamics = ParticipantDynamics::new(&spec, 20, 5);
        let members = dynamics.sybil_members();
        assert_eq!(members.len(), 4);
        for t in 0..25 {
            let mut mask = vec![true; 20];
            dynamics.apply(t, &mut mask);
            for &m in &members {
                assert!(mask[m as usize], "sybil {m} offline at round {t}");
            }
        }
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        let spec = churn_spec();
        let mut straight = ParticipantDynamics::new(&spec, 60, 11);
        let mut masks = Vec::new();
        for t in 0..16 {
            let mut mask = vec![true; 60];
            straight.apply(t, &mut mask);
            masks.push(mask);
        }

        let mut first = ParticipantDynamics::new(&spec, 60, 11);
        for t in 0..8 {
            let mut mask = vec![true; 60];
            first.apply(t, &mut mask);
        }
        let state = first.export_state();
        let mut resumed = ParticipantDynamics::new(&spec, 60, 11);
        resumed.restore_state(state).unwrap();
        for (t, expect) in masks.iter().enumerate().skip(8) {
            let mut mask = vec![true; 60];
            resumed.apply(t as u64, &mut mask);
            assert_eq!(&mask, expect, "round {t}");
        }
    }
}
