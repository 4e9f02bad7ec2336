//! Per-sender parameter momentum (the paper's Eq. 4).
//!
//! Models leak most early in training, and in gossip they arrive at varying
//! training stages; comparing raw snapshots confounds model *quality* with
//! model *specialization*. The attack therefore ranks exponential moving
//! averages `v_u^t = β·v_u^{t−1} + (1−β)·Θ_u^t` instead of raw models.
//!
//! The table lives in `cia-models`, with the [`crate::kernel::ema`] it folds
//! with, so a protocol can fold a sender's model into its momentum right
//! where the model was trained, without materializing a snapshot first.

use crate::kernel::ema;

/// The EMA states `v_u` the adversary keeps: one zeroed slab of
/// `users × (emb_len + agg_len)` floats, a row `[emb | agg]` per sender, and
/// each sender's fold count (`0` = never observed).
///
/// The first model folded in sets the layout of every row; a model with
/// another layout later panics ("sharing policy changed mid-attack").
/// Nothing reads or writes the row of a sender never observed, so its pages
/// stay unmapped (a gossip coalition sees about a quarter of the senders at
/// paper scale); [`Clone`] copies only the seen rows for the same reason.
#[derive(Debug, PartialEq)]
pub struct MomentumTable {
    /// `(emb_len, agg_len)`, set by the first model.
    layout: Option<(Option<usize>, usize)>,
    slab: Vec<f32>,
    updates: Vec<u64>,
}

/// One sender's row of a [`MomentumTable`], borrowed mutably so a training
/// worker can fold its own client's model.
pub struct MomentumRow<'a> {
    emb_len: usize,
    row: &'a mut [f32],
    updates: &'a mut u64,
}

impl MomentumRow<'_> {
    /// Folds one observed model into the row: the first sighting copies it
    /// (`v⁰_u = Θ⁰_u`, line 10 of Algorithms 1 and 2), every later one
    /// applies Eq. 4 with coefficient `beta`.
    ///
    /// # Panics
    ///
    /// Panics if the model's parts do not fit the row.
    pub fn observe(&mut self, beta: f32, emb: Option<&[f32]>, agg: &[f32]) {
        let (v_emb, v_agg) = self.row.split_at_mut(self.emb_len);
        let m_emb = emb.unwrap_or_default();
        if *self.updates == 0 {
            v_agg.copy_from_slice(agg);
            v_emb.copy_from_slice(m_emb);
        } else {
            ema(v_agg, beta, agg);
            ema(v_emb, beta, m_emb);
        }
        *self.updates += 1;
    }
}

impl MomentumTable {
    /// An empty table for `users` senders; the first model allocates the slab.
    pub fn new(users: usize) -> Self {
        MomentumTable { layout: None, slab: Vec::new(), updates: vec![0; users] }
    }

    /// Number of senders (rows).
    pub fn users(&self) -> usize {
        self.updates.len()
    }

    /// The `(emb_len, agg_len)` every row shares, once a model set it.
    pub fn layout(&self) -> Option<(Option<usize>, usize)> {
        self.layout
    }

    /// Floats per row.
    fn width(&self) -> usize {
        self.layout.map_or(0, |(emb, agg)| emb.unwrap_or(0) + agg)
    }

    /// The observed senders, in id order.
    pub fn seen(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.users()).filter(|&u| self.updates[u] > 0)
    }

    /// Number of models folded into `sender`'s row (`0` = never observed).
    pub fn updates(&self, sender: usize) -> u64 {
        self.updates[sender]
    }

    /// `sender`'s averaged owner embedding (if shared) and aggregatable
    /// parameters, or `None` for a sender never observed.
    pub fn get(&self, sender: usize) -> Option<(Option<&[f32]>, &[f32])> {
        let (emb, _) = self.layout.filter(|_| self.updates[sender] > 0)?;
        let w = self.width();
        let (e, a) = self.slab[sender * w..][..w].split_at(emb.unwrap_or(0));
        Some((emb.map(|_| e), a))
    }

    /// Sets the layout if none is set yet, allocating the zeroed slab, and
    /// returns the row width.
    fn lay_out(&mut self, emb: Option<usize>, agg: usize) -> usize {
        match self.layout {
            Some(layout) => assert!(layout == (emb, agg), "sharing policy changed mid-attack"),
            None => {
                self.layout = Some((emb, agg));
                self.slab = vec![0.0; self.users() * (emb.unwrap_or(0) + agg)];
            }
        }
        self.width()
    }

    /// Folds one model of `sender` into its row ([`MomentumRow::observe`]).
    ///
    /// # Panics
    ///
    /// Panics if the model's layout differs from the table's.
    pub fn observe(&mut self, sender: usize, beta: f32, emb: Option<&[f32]>, agg: &[f32]) {
        let w = self.lay_out(emb.map(<[f32]>::len), agg.len());
        let (row, updates) = (&mut self.slab[sender * w..][..w], &mut self.updates[sender]);
        MomentumRow { emb_len: w - agg.len(), row, updates }.observe(beta, emb, agg);
    }

    /// Splits the table into one row per sender, in id order, so workers can
    /// fold distinct senders in parallel; the layout is set or checked as in
    /// [`MomentumTable::observe`].
    pub fn rows_mut(&mut self, emb: Option<usize>, agg: usize) -> Vec<MomentumRow<'_>> {
        let w = self.lay_out(emb, agg);
        let rows = self.slab.chunks_exact_mut(w).zip(&mut self.updates);
        rows.map(|(row, updates)| MomentumRow { emb_len: w - agg, row, updates }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of two senders after `first` folds into sender 1.
    fn first(v: f32, with_emb: bool) -> MomentumTable {
        let mut t = MomentumTable::new(2);
        t.observe(1, 0.5, with_emb.then_some(&[v; 2][..]), &[v; 3]);
        t
    }

    #[test]
    fn first_snapshot_is_copied() {
        let t = first(2.0, true);
        assert_eq!(t.get(1), Some((Some(&[2.0f32; 2][..]), &[2.0f32; 3][..])));
        assert_eq!((t.updates(1), t.get(0), t.seen().collect::<Vec<_>>()), (1, None, vec![1]));
    }

    #[test]
    fn beta_zero_tracks_latest() {
        let mut t = first(1.0, true);
        t.observe(1, 0.0, Some(&[5.0; 2]), &[5.0; 3]);
        assert_eq!(t.get(1).unwrap().1, &[5.0; 3]);
        assert_eq!(t.updates(1), 2);
    }

    #[test]
    fn high_beta_changes_slowly() {
        let mut t = first(0.0, false);
        t.observe(1, 0.99, None, &[1.0; 3]);
        let (emb, agg) = t.get(1).unwrap();
        assert!((agg[0] - 0.01).abs() < 1e-6);
        assert!(emb.is_none());
    }

    #[test]
    fn row_views_fold_like_the_table() {
        let (mut serial, mut split) = (first(0.5, true), first(0.5, true));
        serial.observe(1, 0.9, Some(&[3.0; 2]), &[3.0; 3]);
        serial.observe(0, 0.9, Some(&[1.0; 2]), &[4.0; 3]);
        let mut rows = split.rows_mut(Some(2), 3);
        rows[1].observe(0.9, Some(&[3.0; 2]), &[3.0; 3]);
        rows[0].observe(0.9, Some(&[1.0; 2]), &[4.0; 3]);
        assert_eq!(split, serial);
    }

    #[test]
    #[should_panic(expected = "sharing policy changed")]
    fn layout_change_is_rejected() {
        first(0.0, true).observe(0, 0.5, None, &[1.0; 3]);
    }
}
