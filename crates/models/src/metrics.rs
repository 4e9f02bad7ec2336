//! Recommendation quality metrics.
//!
//! The paper reports hit ratio (HR@K) for GMF and F1-score for PRME (§V-C).
//! NDCG is included for completeness (it is standard alongside HR in the NCF
//! evaluation protocol).

/// Rank of the positive among `[positive] + negatives`, 0-based: the number
/// of negatives scoring strictly higher, plus half the ties (rounded down).
/// The fractional tie handling keeps degenerate models — e.g. DP-noised ones
/// whose scores all saturate to the same value — from scoring free hits.
pub fn rank_of_primary(pos_score: f32, neg_scores: &[f32]) -> usize {
    let above = neg_scores.iter().filter(|&&s| s > pos_score).count();
    let ties = neg_scores.iter().filter(|&&s| s == pos_score).count();
    above + ties / 2
}

/// Whether the positive lands in the top `k` of `[positive] + negatives`.
///
/// ```
/// use cia_models::hit_ratio;
/// assert!(hit_ratio(0.9, &[0.1, 0.5, 0.95], 2));
/// assert!(!hit_ratio(0.9, &[0.91, 0.92, 0.95], 2));
/// ```
pub fn hit_ratio(pos_score: f32, neg_scores: &[f32], k: usize) -> bool {
    rank_of_primary(pos_score, neg_scores) < k
}

/// NDCG@K of the single positive: `1 / log2(rank + 2)` when it hits, else 0.
pub fn ndcg(pos_score: f32, neg_scores: &[f32], k: usize) -> f64 {
    let rank = rank_of_primary(pos_score, neg_scores);
    if rank < k {
        1.0 / ((rank + 2) as f64).log2()
    } else {
        0.0
    }
}

/// F1@K between a recommended list (already truncated to length ≤ K) and the
/// relevant set.
///
/// ```
/// use cia_models::f1_at_k;
/// let f1 = f1_at_k(&[1, 2, 3, 4], &[2, 9]);
/// let p = 1.0 / 4.0;
/// let r = 1.0 / 2.0;
/// assert!((f1 - 2.0 * p * r / (p + r)).abs() < 1e-12);
/// ```
pub fn f1_at_k(recommended: &[u32], relevant: &[u32]) -> f64 {
    if recommended.is_empty() || relevant.is_empty() {
        return 0.0;
    }
    let hits = recommended.iter().filter(|i| relevant.contains(i)).count();
    if hits == 0 {
        return 0.0;
    }
    let p = hits as f64 / recommended.len() as f64;
    let r = hits as f64 / relevant.len() as f64;
    2.0 * p * r / (p + r)
}

/// Accumulates per-user ranking evaluations into mean HR@K / NDCG@K.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankedEval {
    hits: usize,
    ndcg_sum: f64,
    n: usize,
}

impl RankedEval {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one user's evaluation.
    pub fn push(&mut self, pos_score: f32, neg_scores: &[f32], k: usize) {
        if hit_ratio(pos_score, neg_scores, k) {
            self.hits += 1;
        }
        self.ndcg_sum += ndcg(pos_score, neg_scores, k);
        self.n += 1;
    }

    /// Number of users recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no users were recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean hit ratio.
    pub fn hr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.hits as f64 / self.n as f64
        }
    }

    /// Mean NDCG.
    pub fn ndcg(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ndcg_sum / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts_strictly_greater_plus_half_ties() {
        assert_eq!(rank_of_primary(0.5, &[0.4, 0.5, 0.6]), 1);
        assert_eq!(rank_of_primary(1.0, &[]), 0);
        assert_eq!(rank_of_primary(0.0, &[0.1, 0.2]), 2);
        // All-equal scores place the positive mid-pack, not on top.
        assert_eq!(rank_of_primary(1.0, &[1.0; 50]), 25);
    }

    #[test]
    fn hit_ratio_boundary() {
        // rank 2 with k = 2 misses; k = 3 hits.
        assert!(!hit_ratio(0.1, &[0.2, 0.3], 2));
        assert!(hit_ratio(0.1, &[0.2, 0.3], 3));
    }

    #[test]
    fn ndcg_decreases_with_rank() {
        let top = ndcg(1.0, &[0.0, 0.0], 10);
        let second = ndcg(0.5, &[0.6, 0.0], 10);
        assert!((top - 1.0).abs() < 1e-12);
        assert!(second < top && second > 0.0);
        assert_eq!(ndcg(0.0, &[0.5, 0.6], 2), 0.0);
    }

    #[test]
    fn f1_edge_cases() {
        assert_eq!(f1_at_k(&[], &[1]), 0.0);
        assert_eq!(f1_at_k(&[1], &[]), 0.0);
        assert_eq!(f1_at_k(&[1, 2], &[3, 4]), 0.0);
        assert!((f1_at_k(&[1, 2], &[1, 2]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_means() {
        let mut acc = RankedEval::new();
        acc.push(1.0, &[0.0], 1); // hit at rank 0
        acc.push(0.0, &[1.0], 1); // miss
        assert_eq!(acc.len(), 2);
        assert!((acc.hr() - 0.5).abs() < 1e-12);
        assert!(acc.ndcg() > 0.0 && acc.ndcg() < 1.0);
        assert!(!acc.is_empty());
        assert_eq!(RankedEval::new().hr(), 0.0);
    }
}
