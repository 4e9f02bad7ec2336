//! Per-sender parameter momentum (the paper's Eq. 4).
//!
//! Models leak most early in training, and in gossip they arrive at varying
//! training stages; comparing raw snapshots confounds model *quality* with
//! model *specialization*. The attack therefore ranks exponential moving
//! averages `v_u^t = β·v_u^{t−1} + (1−β)·Θ_u^t` instead of raw models.
//!
//! The state lives here, next to [`crate::params::ema`], so a protocol can
//! fold a sender's model into its momentum right where the model was
//! trained, without materializing a snapshot first.

use crate::params::ema;
use crate::participant::SharedModel;

/// The EMA state `v_u` kept by the adversary for one sender.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentumState {
    emb: Option<Vec<f32>>,
    agg: Vec<f32>,
    updates: u64,
}

impl MomentumState {
    /// Rebuilds a state from its raw parts (checkpoint resume); the inverse
    /// of the [`MomentumState::emb`]/[`MomentumState::agg`]/
    /// [`MomentumState::updates`] accessors.
    pub fn from_parts(emb: Option<Vec<f32>>, agg: Vec<f32>, updates: u64) -> Self {
        MomentumState { emb, agg, updates }
    }

    /// Folds one observed model into a sender's table entry: the first
    /// sighting copies it (`v⁰_u = Θ⁰_u`, line 10 of Algorithms 1 and 2),
    /// every later one applies Eq. 4 through [`MomentumState::fold`].
    pub fn observe(entry: &mut Option<Self>, beta: f32, emb: Option<&[f32]>, agg: &[f32]) {
        match entry {
            Some(state) => state.fold(beta, emb, agg),
            None => *entry = Some(Self::from_parts(emb.map(<[f32]>::to_vec), agg.to_vec(), 1)),
        }
    }

    /// Applies Eq. 4 with coefficient `beta` to the model's parts.
    ///
    /// # Panics
    ///
    /// Panics if the model's layout differs from the state's.
    pub fn fold(&mut self, beta: f32, emb: Option<&[f32]>, agg: &[f32]) {
        ema(&mut self.agg, beta, agg);
        match (&mut self.emb, emb) {
            (Some(v), Some(m)) => ema(v, beta, m),
            (None, None) => {}
            _ => panic!("sharing policy changed mid-attack"),
        }
        self.updates += 1;
    }

    /// Applies Eq. 4 with coefficient `beta` to a snapshot
    /// ([`MomentumState::fold`] over its parts).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's layout differs from the state's.
    pub fn update(&mut self, beta: f32, model: &SharedModel) {
        self.fold(beta, model.owner_emb.as_deref(), &model.agg);
    }

    /// The averaged owner embedding (if shared).
    pub fn emb(&self) -> Option<&[f32]> {
        self.emb.as_deref()
    }

    /// The averaged aggregatable parameters.
    pub fn agg(&self) -> &[f32] {
        &self.agg
    }

    /// Number of snapshots folded in (including the initial one).
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::UserId;

    fn snap(v: f32, with_emb: bool) -> SharedModel {
        SharedModel {
            owner: UserId::new(0),
            round: 0,
            owner_emb: with_emb.then(|| vec![v; 2]),
            agg: vec![v; 3],
        }
    }

    /// The state after its first sighting of `model`.
    fn first(model: &SharedModel) -> MomentumState {
        let mut entry = None;
        MomentumState::observe(&mut entry, 0.5, model.owner_emb.as_deref(), &model.agg);
        entry.unwrap()
    }

    #[test]
    fn first_snapshot_is_copied() {
        let s = first(&snap(2.0, true));
        assert_eq!(s.agg(), &[2.0; 3]);
        assert_eq!(s.emb(), Some(&[2.0f32; 2][..]));
        assert_eq!(s.updates(), 1);
    }

    #[test]
    fn beta_zero_tracks_latest() {
        let mut s = first(&snap(1.0, true));
        s.update(0.0, &snap(5.0, true));
        assert_eq!(s.agg(), &[5.0; 3]);
        assert_eq!(s.updates(), 2);
    }

    #[test]
    fn high_beta_changes_slowly() {
        let mut s = first(&snap(0.0, false));
        s.update(0.99, &snap(1.0, false));
        assert!((s.agg()[0] - 0.01).abs() < 1e-6);
        assert!(s.emb().is_none());
    }

    #[test]
    fn later_sightings_fold_like_a_snapshot_update() {
        let (a, b) = (snap(0.5, true), snap(3.0, true));
        let mut entry = Some(first(&a));
        MomentumState::observe(&mut entry, 0.9, b.owner_emb.as_deref(), &b.agg);
        let mut serial = first(&a);
        serial.update(0.9, &b);
        assert_eq!(entry, Some(serial));
        assert_eq!(entry.unwrap().updates(), 2);
    }

    #[test]
    #[should_panic(expected = "sharing policy changed")]
    fn layout_change_is_rejected() {
        let mut s = first(&snap(0.0, true));
        s.update(0.5, &snap(1.0, false));
    }
}
