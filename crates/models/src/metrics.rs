//! Recommendation quality metrics.
//!
//! The paper reports hit ratio (HR@K) for GMF and F1-score for PRME (§V-C).

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
    fn f1_edge_cases() {
        assert_eq!(f1_at_k(&[], &[1]), 0.0);
        assert_eq!(f1_at_k(&[1], &[]), 0.0);
        assert_eq!(f1_at_k(&[1, 2], &[3, 4]), 0.0);
        assert!((f1_at_k(&[1, 2], &[1, 2]) - 1.0).abs() < 1e-12);
    }
}
