//! Jaccard similarity and the paper's community ground truth (Eq. 5).
//!
//! For a target item set `V_target`, the *true community* `C` is the set of
//! `K` users whose training item sets have the highest Jaccard index with
//! `V_target`. The owner of the target set (when the target is a user's own
//! train set) is excluded — its Jaccard with itself is trivially 1.

use crate::parallel::par_map;
use crate::UserId;

/// Jaccard index `|a ∩ b| / |a ∪ b|` of two **sorted, deduplicated** slices.
///
/// Returns 0 when both sets are empty.
///
/// ```
/// use cia_data::jaccard_index;
/// assert_eq!(jaccard_index(&[1, 2, 3], &[2, 3, 4]), 0.5);
/// assert_eq!(jaccard_index(&[], &[]), 0.0);
/// ```
#[must_use]
pub fn jaccard_index(a: &[u32], b: &[u32]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "input must be sorted unique");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "input must be sorted unique");
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Returns the `k` users (among `candidates`) whose item sets are most similar
/// to `target`, ties broken by smaller user id (deterministic).
///
/// `candidates` provides `(user, sorted item set)` pairs.
#[must_use]
pub fn top_k_similar<'a>(
    target: &[u32],
    candidates: impl Iterator<Item = (UserId, &'a [u32])>,
    k: usize,
) -> Vec<UserId> {
    let mut scored: Vec<(f64, UserId)> =
        candidates.map(|(u, items)| (jaccard_index(target, items), u)).collect();
    // Descending similarity; ascending id on ties.
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).expect("jaccard is finite").then_with(|| a.1.cmp(&b.1))
    });
    scored.into_iter().take(k).map(|(_, u)| u).collect()
}

/// Bitset words ANDed (owners × candidates × words per set) from which
/// [`GroundTruth::from_train_sets`] spreads owners over worker threads;
/// below it the scoped-thread spawns cost more than they save. 2^20 words
/// take under a millisecond on one core. The smoke scale (48 users, 3
/// words) ANDs 7k, the small scale 280k and the paper scale 24M.
const PARALLEL_MIN_WORD_PAIRS: usize = 1 << 20;

/// Ground-truth communities for every possible adversary target
/// (the paper runs one experiment per user, using that user's train set as
/// `V_target`; see §V-C).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    k: usize,
    /// `communities[u]` = the true community when user `u`'s train set is the
    /// target (owner excluded), sorted by descending similarity.
    communities: Vec<Vec<UserId>>,
}

impl GroundTruth {
    /// Computes ground truth for all per-user targets from the **training**
    /// item sets.
    ///
    /// `train_sets[u]` must be sorted and deduplicated. The owner `u` is
    /// excluded from its own community.
    ///
    /// Implementation: each user's set becomes a bitset over the catalog
    /// (27 `u64` words at 1,682 items), so `|owner ∩ v|` is the popcount of
    /// the AND of two rows. The Jaccard value is derived from that count
    /// with the exact float expression [`jaccard_index`] uses. Each
    /// candidate gets the integer key `(u64::MAX − jaccard.to_bits(), id)`:
    /// for the non-negative Jaccard values `to_bits` is monotone, so
    /// ascending keys are descending similarity, then ascending id, which is
    /// [`top_k_similar`]'s order. Keys are distinct, so selecting the best
    /// `k` and sorting only them yields the prefix of the full sort. Results
    /// are therefore identical to [`GroundTruth::from_train_sets_naive`],
    /// which the property tests use as the oracle. Owners run in parallel
    /// with [`par_map`] once the work reaches 2^20 ANDed words (a `const`).
    pub fn from_train_sets(train_sets: &[Vec<u32>], k: usize) -> Self {
        let n = train_sets.len();
        let num_items =
            train_sets.iter().filter_map(|s| s.last()).max().map_or(0, |&m| m as usize + 1);
        let total_interactions: usize = train_sets.iter().map(Vec::len).sum();
        if num_items > total_interactions.saturating_mul(8) + 1024 {
            // Sparse/hashed item ids: a bitset sized by the max id would
            // dwarf the data. The pairwise merge is the right tool.
            return Self::from_train_sets_naive(train_sets, k);
        }
        let words = num_items.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for (row, set) in bits.chunks_exact_mut(words).zip(train_sets) {
            debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "train sets must be sorted unique");
            for &item in set {
                row[item as usize / 64] |= 1 << (item % 64);
            }
        }
        let community = |owner: usize| {
            let own = &bits[owner * words..][..words];
            let own_len = train_sets[owner].len();
            let mut keys: Vec<u128> = Vec::with_capacity(n);
            for (v, row) in bits.chunks_exact(words).enumerate() {
                if v == owner {
                    continue;
                }
                let i =
                    own.iter().zip(row).map(|(a, b)| (a & b).count_ones()).sum::<u32>() as usize;
                let union = own_len + train_sets[v].len() - i;
                let j = if union == 0 { 0.0 } else { i as f64 / union as f64 };
                keys.push((u128::from(u64::MAX - j.to_bits()) << 32) | v as u128);
            }
            if k < keys.len() {
                keys.select_nth_unstable(k);
                keys.truncate(k);
            }
            keys.sort_unstable();
            // cia-lint: allow(D05, a key's low 32 bits hold the candidate's u32 user id)
            keys.into_iter().map(|key| UserId::new(key as u32)).collect()
        };
        let communities = if n * n * words < PARALLEL_MIN_WORD_PAIRS {
            (0..n).map(community).collect()
        } else {
            par_map(n, community)
        };
        GroundTruth { k, communities }
    }

    /// The straightforward O(N²·|set|) pairwise-merge version of
    /// [`GroundTruth::from_train_sets`]: the property-test oracle the bitset
    /// path is checked against, and the path it takes for sparse item ids.
    pub fn from_train_sets_naive(train_sets: &[Vec<u32>], k: usize) -> Self {
        let communities = (0..train_sets.len())
            .map(|owner| {
                top_k_similar(
                    &train_sets[owner],
                    train_sets
                        .iter()
                        .enumerate()
                        .filter(|&(u, _)| u != owner)
                        .map(|(u, items)| (UserId::from_index(u), items.as_slice())),
                    k,
                )
            })
            .collect();
        GroundTruth { k, communities }
    }

    /// Computes ground truth for a single, attacker-crafted target set.
    ///
    /// No owner exclusion applies — every user is a candidate.
    pub fn for_target(target: &[u32], train_sets: &[Vec<u32>], k: usize) -> Vec<UserId> {
        top_k_similar(
            target,
            train_sets
                .iter()
                .enumerate()
                .map(|(u, items)| (UserId::from_index(u), items.as_slice())),
            k,
        )
    }

    /// Community size `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of per-user targets.
    pub fn num_targets(&self) -> usize {
        self.communities.len()
    }

    /// The true community when `owner`'s train set is the target.
    pub fn community_of(&self, owner: UserId) -> &[UserId] {
        &self.communities[owner.index()]
    }

    /// Accuracy of a predicted community `predicted` against the truth for
    /// `owner` (Eq. 6): `|Ĉ ∩ C| / K`.
    pub fn accuracy(&self, owner: UserId, predicted: &[UserId]) -> f64 {
        let truth = self.community_of(owner);
        let hits = predicted.iter().filter(|u| truth.contains(u)).count();
        hits as f64 / self.k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard_index(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard_index(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard_index(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_index(&[], &[1]), 0.0);
    }

    #[test]
    fn top_k_orders_by_similarity_then_id() {
        let sets: Vec<Vec<u32>> = vec![
            vec![1, 2, 3], // identical to target
            vec![1, 2],    // 2/3
            vec![1, 2],    // 2/3 (tie with user 1 -> id order)
            vec![9],       // 0
        ];
        let got = top_k_similar(
            &[1, 2, 3],
            sets.iter().enumerate().map(|(u, s)| (UserId::from_index(u), s.as_slice())),
            3,
        );
        assert_eq!(got, vec![UserId::new(0), UserId::new(1), UserId::new(2)]);
    }

    #[test]
    fn ground_truth_excludes_owner() {
        let sets = vec![vec![1, 2, 3], vec![1, 2, 3], vec![7, 8]];
        let gt = GroundTruth::from_train_sets(&sets, 1);
        assert_eq!(gt.community_of(UserId::new(0)), &[UserId::new(1)]);
        assert_eq!(gt.community_of(UserId::new(1)), &[UserId::new(0)]);
    }

    #[test]
    fn accuracy_counts_overlap() {
        let sets = vec![vec![1, 2], vec![1, 2], vec![1, 3], vec![9]];
        let gt = GroundTruth::from_train_sets(&sets, 2);
        // Truth for user 0 is {1, 2}.
        let acc = gt.accuracy(UserId::new(0), &[UserId::new(1), UserId::new(3)]);
        assert!((acc - 0.5).abs() < 1e-12);
        let acc = gt.accuracy(UserId::new(0), &[UserId::new(1), UserId::new(2)]);
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_item_ids_fall_back_to_naive_and_agree() {
        // Max id ≫ total interactions: the dense postings table would be
        // absurd, so the guard routes to the pairwise merge.
        let sets = vec![vec![7, 4_000_000_000], vec![7, 9], vec![4_000_000_000]];
        let gt = GroundTruth::from_train_sets(&sets, 2);
        let naive = GroundTruth::from_train_sets_naive(&sets, 2);
        for u in 0..3 {
            assert_eq!(gt.community_of(UserId::new(u)), naive.community_of(UserId::new(u)));
        }
    }

    #[test]
    fn for_target_includes_everyone() {
        let sets = vec![vec![1, 2], vec![5, 6]];
        let got = GroundTruth::for_target(&[1, 2], &sets, 1);
        assert_eq!(got, vec![UserId::new(0)]);
    }
}
