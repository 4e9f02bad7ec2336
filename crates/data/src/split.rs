//! Train/test splitting and negative sampling.
//!
//! Utility (HR@K, F1@K) is measured with the standard leave-one-out protocol
//! of the GMF/NCF paper: one held-out item per user is ranked against a
//! sample of unobserved items.

use crate::{DataError, Dataset, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A leave-one-out split: per user, all interactions but a small holdout are
/// kept for training; the held-out items plus sampled negatives form the
/// evaluation instance.
///
/// ```
/// use cia_data::{LeaveOneOut, SyntheticConfig};
///
/// let data = SyntheticConfig::builder()
///     .users(20).items(100).communities(4).interactions_per_user(8)
///     .seed(3).build().generate();
/// let split = LeaveOneOut::new(&data, 20, 99).unwrap();
/// assert_eq!(split.train_sets().len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct LeaveOneOut {
    train_sets: Vec<Vec<u32>>,
    train_sequences: Vec<Vec<u32>>,
    eval: Vec<EvalInstance>,
}

/// One user's ranking evaluation instance: the held-out positives and a pool
/// of sampled negatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalInstance {
    /// The held-out test items (at least one). The first is the *primary*
    /// positive used by hit-ratio metrics.
    pub positives: Vec<u32>,
    /// Sampled unobserved items the positives compete against.
    pub negatives: Vec<u32>,
}

impl EvalInstance {
    /// The primary held-out item (hit-ratio evaluation).
    pub fn primary(&self) -> u32 {
        self.positives[0]
    }
}

impl LeaveOneOut {
    /// Splits `data` holding out one item per user (the chronologically last
    /// check-in for sequence data, a random observed item otherwise) and
    /// sampling `num_negatives` unobserved items for evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::NotEnoughInteractions`] if a user has fewer than
    /// two interactions, or [`DataError::InvalidConfig`] if the catalog is too
    /// small to sample the requested negatives.
    pub fn new(data: &Dataset, num_negatives: usize, seed: u64) -> Result<Self, DataError> {
        Self::with_holdout(data, 1, num_negatives, seed)
    }

    /// Like [`LeaveOneOut::new`] but holding out up to `holdout` items per
    /// user (never more than half the user's interactions). Multi-item
    /// holdouts make precision/recall-style metrics (the paper's F1 for
    /// PRME) meaningful.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LeaveOneOut::new`]; additionally `holdout` must
    /// be at least 1.
    pub fn with_holdout(
        data: &Dataset,
        holdout: usize,
        num_negatives: usize,
        seed: u64,
    ) -> Result<Self, DataError> {
        if holdout == 0 {
            return Err(DataError::InvalidConfig {
                field: "holdout",
                reason: "must hold out at least one item".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let num_items = data.num_items();
        let mut train_sets = Vec::with_capacity(data.num_users());
        let mut train_sequences = Vec::with_capacity(data.num_users());
        let mut eval = Vec::with_capacity(data.num_users());
        let mut mask = vec![0u64; (num_items as usize).div_ceil(64)];

        for (u, rec) in data.iter() {
            if rec.len() < 2 {
                return Err(DataError::NotEnoughInteractions {
                    user: u.raw(),
                    have: rec.len(),
                    need: 2,
                });
            }
            // cia-lint: allow(D05, per-user interaction counts are catalog-bounded; the sum fits u32)
            if (rec.len() + num_negatives) as u32 > num_items {
                return Err(DataError::InvalidConfig {
                    field: "num_negatives",
                    reason: format!(
                        "user {u} has {} items; catalog of {num_items} cannot supply {num_negatives} negatives",
                        rec.len()
                    ),
                });
            }
            let take = holdout.min(rec.len() / 2).max(1);

            // Hold out the chronologically last distinct check-ins when a
            // sequence exists, else random observed items.
            let held: Vec<u32> = if rec.sequence().is_empty() {
                let mut pool: Vec<u32> = rec.items().to_vec();
                for i in 0..take {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(take);
                pool
            } else {
                let mut held = Vec::with_capacity(take);
                for &it in rec.sequence().iter().rev() {
                    if !held.contains(&it) {
                        held.push(it);
                        if held.len() == take {
                            break;
                        }
                    }
                }
                held
            };
            let mut train = rec.items().to_vec();
            train.retain(|i| !held.contains(i));
            // Drop held-out visits from the training sequence; successor
            // pairs across the removed gaps are a negligible approximation
            // for the synthetic traces.
            let mut train_seq = rec.sequence().to_vec();
            train_seq.retain(|i| !held.contains(i));
            let negatives =
                sample_unobserved(rec.items(), num_items, num_negatives, &mut rng, &mut mask);
            train_sets.push(train);
            train_sequences.push(train_seq);
            eval.push(EvalInstance { positives: held, negatives });
        }

        Ok(LeaveOneOut { train_sets, train_sequences, eval })
    }

    /// Per-user training item sets (sorted, unique).
    pub fn train_sets(&self) -> &[Vec<u32>] {
        &self.train_sets
    }

    /// Per-user training check-in sequences (empty for rating data).
    pub fn train_sequences(&self) -> &[Vec<u32>] {
        &self.train_sequences
    }

    /// The evaluation instance of user `u`.
    pub fn eval_of(&self, u: UserId) -> &EvalInstance {
        &self.eval[u.index()]
    }

    /// All evaluation instances, indexed by user.
    pub fn eval_instances(&self) -> &[EvalInstance] {
        &self.eval
    }
}

/// Samples `count` distinct items uniformly from the catalog that are **not**
/// in `observed` (which must be sorted, deduplicated and inside the
/// catalog).
///
/// Candidates are drawn with `gen_range(0..num_items)` and kept unless
/// observed or already kept, so the output and the RNG's use are fixed by
/// `rng`'s state alone; a bitmask over the catalog answers both questions.
///
/// # Panics
///
/// Panics if the catalog cannot supply `count` distinct unobserved items,
/// or if an observed item lies outside `0..num_items`.
pub fn sample_negatives(
    observed: &[u32],
    num_items: u32,
    count: usize,
    rng: &mut StdRng,
) -> Vec<u32> {
    let mut mask = vec![0u64; (num_items as usize).div_ceil(64)];
    sample_unobserved(observed, num_items, count, rng, &mut mask)
}

/// [`sample_negatives`] with a caller-owned `mask` of `num_items` bits, all
/// clear on entry and on return, so a split reuses one mask for every user.
/// Bit `i` is set while item `i` is observed or already kept.
fn sample_unobserved(
    observed: &[u32],
    num_items: u32,
    count: usize,
    rng: &mut StdRng,
    mask: &mut [u64],
) -> Vec<u32> {
    assert!(observed.last().is_none_or(|&m| m < num_items), "observed item outside the catalog");
    let available = num_items as usize - observed.len();
    assert!(available >= count, "catalog too small: need {count} negatives, have {available}");
    let bit = |item: u32| (item as usize / 64, 1u64 << (item % 64));
    for &item in observed {
        let (word, b) = bit(item);
        mask[word] |= b;
    }
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let cand = rng.gen_range(0..num_items);
        let (word, b) = bit(cand);
        if mask[word] & b == 0 {
            mask[word] |= b;
            out.push(cand);
        }
    }
    for &item in observed.iter().chain(&out) {
        let (word, b) = bit(item);
        mask[word] &= !b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyntheticConfig, UserRecord};

    fn data(sequences: bool) -> Dataset {
        SyntheticConfig::builder()
            .users(30)
            .items(200)
            .communities(5)
            .interactions_per_user(12)
            .sequences(sequences)
            .seed(8)
            .build()
            .generate()
    }

    #[test]
    fn split_removes_exactly_one_item_per_user() {
        let d = data(false);
        let s = LeaveOneOut::new(&d, 50, 1).unwrap();
        for (u, rec) in d.iter() {
            let train = &s.train_sets()[u.index()];
            assert_eq!(train.len(), rec.len() - 1);
            let held = s.eval_of(u).primary();
            assert!(rec.contains(held));
            assert!(!train.contains(&held));
        }
    }

    #[test]
    fn multi_holdout_splits_consistently() {
        let d = data(true);
        let s = LeaveOneOut::with_holdout(&d, 3, 20, 5).unwrap();
        for (u, rec) in d.iter() {
            let inst = s.eval_of(u);
            assert!(!inst.positives.is_empty() && inst.positives.len() <= 3);
            let train = &s.train_sets()[u.index()];
            assert_eq!(train.len() + inst.positives.len(), rec.len());
            for p in &inst.positives {
                assert!(!train.contains(p));
                assert!(rec.contains(*p));
            }
            // Train sequence never references held-out items.
            for t in &s.train_sequences()[u.index()] {
                assert!(!inst.positives.contains(t));
            }
        }
    }

    #[test]
    fn holdout_zero_is_rejected() {
        let d = data(false);
        assert!(matches!(
            LeaveOneOut::with_holdout(&d, 0, 5, 0),
            Err(DataError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn negatives_are_unobserved_and_distinct() {
        let d = data(false);
        let s = LeaveOneOut::new(&d, 50, 2).unwrap();
        for (u, rec) in d.iter() {
            let negs = &s.eval_of(u).negatives;
            assert_eq!(negs.len(), 50);
            let mut uniq = negs.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 50);
            for &n in negs {
                assert!(!rec.contains(n));
            }
        }
    }

    #[test]
    #[should_panic(expected = "observed item outside the catalog")]
    fn negatives_refuse_an_observed_item_outside_the_catalog() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_negatives(&[3, 200], 100, 5, &mut rng);
    }

    #[test]
    fn sequence_holdout_is_last_checkin() {
        let d = data(true);
        let s = LeaveOneOut::new(&d, 20, 3).unwrap();
        for (u, rec) in d.iter() {
            assert_eq!(s.eval_of(u).primary(), *rec.sequence().last().unwrap());
            // The held-out visits were removed from the training sequence.
            let tseq = &s.train_sequences()[u.index()];
            assert!(tseq.len() < rec.sequence().len());
            assert!(!tseq.contains(&s.eval_of(u).primary()));
        }
    }

    #[test]
    fn rejects_single_interaction_users() {
        let d = Dataset::new("tiny", 10, vec![UserRecord::new(vec![1], vec![])]).unwrap();
        assert!(matches!(LeaveOneOut::new(&d, 3, 0), Err(DataError::NotEnoughInteractions { .. })));
    }

    #[test]
    fn rejects_catalog_too_small_for_negatives() {
        let d = Dataset::new("tiny", 4, vec![UserRecord::new(vec![0, 1], vec![])]).unwrap();
        assert!(matches!(LeaveOneOut::new(&d, 5, 0), Err(DataError::InvalidConfig { .. })));
    }

    #[test]
    fn deterministic_given_seed() {
        let d = data(false);
        let a = LeaveOneOut::new(&d, 10, 7).unwrap();
        let b = LeaveOneOut::new(&d, 10, 7).unwrap();
        assert_eq!(a.train_sets(), b.train_sets());
        assert_eq!(a.eval_instances(), b.eval_instances());
    }
}
