//! Attack metrics (§V-C): per-round attack accuracy, average attack accuracy
//! (AAC), Max AAC over rounds, Best-10% AAC, the hyper-geometric random bound
//! and the observation-coverage upper bound.

use cia_data::UserId;

/// Accuracy of one predicted community (Eq. 6): `|Ĉ ∩ C| / K`.
pub fn community_accuracy<T: PartialEq>(predicted: &[T], truth: &[T], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let hits = predicted.iter().filter(|p| truth.contains(p)).count();
    hits as f64 / k as f64
}

/// The random-guess expectation: drawing `K` of `N` candidates without
/// replacement hits `K·(K/N)` community members, i.e. accuracy `K/N`.
pub fn random_bound(k: usize, candidates: usize) -> f64 {
    if candidates == 0 {
        0.0
    } else {
        (k as f64 / candidates as f64).min(1.0)
    }
}

/// The minimum accuracy among the best `frac` (e.g. 0.1) of attackers —
/// the paper's "Best 10% AAC".
pub fn best_fraction_floor(accuracies: &[f64], frac: f64) -> f64 {
    if accuracies.is_empty() {
        return 0.0;
    }
    let mut sorted = accuracies.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite accuracies"));
    let take = ((sorted.len() as f64 * frac).ceil() as usize).clamp(1, sorted.len());
    sorted[take - 1]
}

/// Descending, NaN-safe comparison of `(score, id)` pairs for attack
/// rankings: NaN scores (a destroyed DP-noised model) sink to the bottom and
/// ties break on ascending id for determinism.
pub fn rank_desc(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
    let ax = if a.0.is_nan() { f32::NEG_INFINITY } else { a.0 };
    let bx = if b.0.is_nan() { f32::NEG_INFINITY } else { b.0 };
    bx.partial_cmp(&ax).expect("mapped NaN away").then_with(|| a.1.cmp(&b.1))
}

/// Bounded streaming top-`k` selection under the [`rank_desc`] order.
///
/// Scores stream in one at a time (or tile by tile) and the selector keeps
/// only the current best `k` in a small sorted buffer — memory is `O(k)`
/// instead of the catalog-length score vector a score-then-sort needs, which
/// is what keeps HR@20/F1@20 evaluation tractable at a 10⁵-item catalog.
///
/// Because [`rank_desc`] is a strict total order over distinct ids (NaN sinks
/// to the bottom, ties break on ascending id), the result is *exactly* the
/// first `k` entries of a full sort of the same pairs — see the equivalence
/// proptest in `cia-scenarios`.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    buf: Vec<(f32, u32)>,
}

impl TopK {
    /// Creates a selector retaining the best `k` pairs.
    pub fn new(k: usize) -> Self {
        TopK { k, buf: Vec::with_capacity(k.saturating_add(1).min(4096)) }
    }

    /// Offers one `(score, id)` pair.
    pub fn push(&mut self, score: f32, id: u32) {
        if self.k == 0 {
            return;
        }
        let cand = (score, id);
        // Fast path once warm: almost every candidate loses to the cutoff.
        if self.buf.len() == self.k
            && rank_desc(&cand, &self.buf[self.k - 1]) != std::cmp::Ordering::Less
        {
            return;
        }
        let pos = self.buf.binary_search_by(|e| rank_desc(e, &cand)).unwrap_or_else(|e| e);
        self.buf.insert(pos, cand);
        self.buf.truncate(self.k);
    }

    /// Number of pairs currently retained (≤ `k`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been offered yet (or `k == 0`).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained pairs, best first — identical to
    /// `sort_by(rank_desc); truncate(k)` over everything pushed.
    pub fn into_sorted(self) -> Vec<(f32, u32)> {
        self.buf
    }

    /// The retained ids, best first.
    pub fn into_ids(self) -> Vec<u32> {
        self.buf.into_iter().map(|(_, id)| id).collect()
    }
}

/// The best `k` candidates of one attack ranking, as users: every attack
/// streams its `(score, user id)` candidates through [`TopK`].
pub(crate) fn top_k_users(k: usize, scored: impl IntoIterator<Item = (f32, u32)>) -> Vec<UserId> {
    let mut sel = TopK::new(k);
    for (score, id) in scored {
        sel.push(score, id);
    }
    sel.into_ids().into_iter().map(UserId::new).collect()
}

/// The observation-coverage bound of one target: the observed members of
/// its true community as a fraction of `k`.
pub(crate) fn coverage(truth: &[UserId], k: usize, observed: impl Fn(&UserId) -> bool) -> f64 {
    truth.iter().filter(|u| observed(u)).count() as f64 / k as f64
}

/// One evaluated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPoint {
    /// Round index.
    pub round: u64,
    /// Average attack accuracy over all attackers/targets this round.
    pub aac: f64,
    /// Minimum accuracy among the best 10% of attackers this round.
    pub best10: f64,
    /// Mean accuracy upper bound (fraction of each true community whose
    /// models the adversary has observed).
    pub upper_bound: f64,
    /// Dynamics-aware bound: the fraction of each true community whose
    /// models the adversary has observed *and* whose owners were live in the
    /// evaluated round. Always ≤ [`RoundPoint::upper_bound`]; equal for
    /// static populations. Under churn the static bound conflates "offline"
    /// with "unobserved" — this one separates them.
    pub upper_bound_online: f64,
}

/// Accumulates per-round accuracies and reports the paper's summary metrics.
///
/// ```
/// use cia_core::AttackTracker;
/// let mut t = AttackTracker::new(10, 100);
/// t.record(0, &[0.1, 0.2], &[1.0, 1.0]);
/// t.record(1, &[0.5, 0.7], &[1.0, 1.0]);
/// let out = t.outcome();
/// assert_eq!(out.max_aac, 0.6);
/// assert_eq!(out.max_round, 1);
/// ```
#[derive(Debug, Clone)]
pub struct AttackTracker {
    k: usize,
    candidates: usize,
    history: Vec<RoundPoint>,
}

impl AttackTracker {
    /// Creates a tracker for community size `k` over `candidates` possible
    /// community members (used for the random bound).
    pub fn new(k: usize, candidates: usize) -> Self {
        AttackTracker { k, candidates, history: Vec::new() }
    }

    /// Records one evaluated round: per-attacker accuracies and per-attacker
    /// observation-coverage upper bounds. The online bound is taken equal to
    /// the static bound — the right call for attacks over static populations
    /// (use [`AttackTracker::record_with_online`] when a dynamics layer
    /// supplies a live participant set).
    pub fn record(&mut self, round: u64, accuracies: &[f64], upper_bounds: &[f64]) {
        self.record_with_online(round, accuracies, upper_bounds, upper_bounds);
    }

    /// Records one evaluated round with a separate dynamics-aware bound:
    /// `upper_bounds_online[i]` counts only community members both observed
    /// and currently live. Offline/never-observed attackers must be excluded
    /// from *both* bound slices by the caller (their zeros are absence of
    /// observation vantage, not coverage evidence — including them deflates
    /// the reported bound under churn); the accuracy slice stays over the
    /// full attacker population, so the two slices may differ in length.
    pub fn record_with_online(
        &mut self,
        round: u64,
        accuracies: &[f64],
        upper_bounds: &[f64],
        upper_bounds_online: &[f64],
    ) {
        let aac = mean(accuracies);
        let best10 = best_fraction_floor(accuracies, 0.1);
        self.history.push(RoundPoint {
            round,
            aac,
            best10,
            upper_bound: mean(upper_bounds),
            upper_bound_online: mean(upper_bounds_online),
        });
    }

    /// Number of evaluated rounds so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The evaluated history.
    pub fn history(&self) -> &[RoundPoint] {
        &self.history
    }

    /// Replaces the recorded history (checkpoint resume). `k` and the
    /// candidate count are construction-time constants and stay untouched.
    pub fn restore_history(&mut self, history: Vec<RoundPoint>) {
        self.history = history;
    }

    /// Summarizes into the paper's reporting format.
    pub fn outcome(&self) -> AttackOutcome {
        let best =
            self.history.iter().max_by(|a, b| a.aac.partial_cmp(&b.aac).expect("finite AAC"));
        match best {
            Some(p) => AttackOutcome {
                k: self.k,
                max_aac: p.aac,
                best10_aac: p.best10,
                max_round: p.round,
                random_bound: random_bound(self.k, self.candidates),
                upper_bound: p.upper_bound,
                upper_bound_online: p.upper_bound_online,
                history: self.history.clone(),
            },
            None => AttackOutcome {
                k: self.k,
                max_aac: 0.0,
                best10_aac: 0.0,
                max_round: 0,
                random_bound: random_bound(self.k, self.candidates),
                upper_bound: 0.0,
                upper_bound_online: 0.0,
                history: Vec::new(),
            },
        }
    }
}

/// Final attack report, matching the columns of the paper's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Community size `K`.
    pub k: usize,
    /// Maximum average attack accuracy over all evaluated rounds.
    pub max_aac: f64,
    /// Best-10% AAC at the round where Max AAC was achieved.
    pub best10_aac: f64,
    /// The round achieving Max AAC.
    pub max_round: u64,
    /// The random-guess expectation `K/N`.
    pub random_bound: f64,
    /// Mean observation-coverage upper bound at the Max AAC round.
    pub upper_bound: f64,
    /// Dynamics-aware bound at the Max AAC round (observed ∧ live members
    /// only); ≤ `upper_bound`, equal for static populations.
    pub upper_bound_online: f64,
    /// Full per-round history.
    pub history: Vec<RoundPoint>,
}

impl AttackOutcome {
    /// Max AAC as a multiple of the random bound ("up to 10× random
    /// guessing" in the paper's abstract).
    pub fn advantage_over_random(&self) -> f64 {
        if self.random_bound == 0.0 {
            0.0
        } else {
            self.max_aac / self.random_bound
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(community_accuracy(&[1, 2, 3], &[2, 3, 4], 3), 2.0 / 3.0);
        assert_eq!(community_accuracy::<u32>(&[], &[1], 5), 0.0);
        assert_eq!(community_accuracy(&[1], &[1], 0), 0.0);
    }

    #[test]
    fn random_bound_is_k_over_n() {
        assert_eq!(random_bound(50, 943), 50.0 / 943.0);
        assert_eq!(random_bound(10, 0), 0.0);
        assert_eq!(random_bound(10, 5), 1.0);
    }

    #[test]
    fn best_fraction_takes_floor_of_top_decile() {
        let accs: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        // Top 10% = {0.91..1.00}; floor = 0.91.
        assert!((best_fraction_floor(&accs, 0.1) - 0.91).abs() < 1e-12);
        // Tiny populations: at least one attacker.
        assert_eq!(best_fraction_floor(&[0.3, 0.7], 0.1), 0.7);
        assert_eq!(best_fraction_floor(&[], 0.1), 0.0);
    }

    #[test]
    fn tracker_tracks_max_round() {
        let mut t = AttackTracker::new(5, 50);
        t.record(0, &[0.2, 0.4], &[0.5, 0.5]);
        t.record(2, &[0.6, 0.8], &[1.0, 1.0]);
        t.record(4, &[0.1, 0.1], &[1.0, 1.0]);
        let out = t.outcome();
        assert_eq!(out.max_round, 2);
        assert!((out.max_aac - 0.7).abs() < 1e-12);
        assert!((out.best10_aac - 0.8).abs() < 1e-12);
        assert!((out.upper_bound - 1.0).abs() < 1e-12);
        // Plain `record` treats the population as static.
        assert_eq!(out.upper_bound_online, out.upper_bound);
        assert!((out.random_bound - 0.1).abs() < 1e-12);
        assert!((out.advantage_over_random() - 7.0).abs() < 1e-9);
        assert_eq!(out.history.len(), 3);
    }

    #[test]
    fn online_bound_is_tracked_separately() {
        let mut t = AttackTracker::new(5, 50);
        // Bound slices may be shorter than the accuracy slice (offline
        // attackers excluded) and the online bound sits below the static one.
        t.record_with_online(0, &[0.2, 0.4, 0.0], &[0.8, 0.6], &[0.4, 0.2]);
        let p = &t.history()[0];
        assert!((p.upper_bound - 0.7).abs() < 1e-12);
        assert!((p.upper_bound_online - 0.3).abs() < 1e-12);
        assert!(p.upper_bound_online <= p.upper_bound);
        let out = t.outcome();
        assert!((out.upper_bound_online - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_outcome_is_zeroed() {
        let t = AttackTracker::new(5, 50);
        let out = t.outcome();
        assert_eq!(out.max_aac, 0.0);
        assert!(t.is_empty());
    }

    fn full_sort_prefix(pairs: &[(f32, u32)], k: usize) -> Vec<(f32, u32)> {
        let mut v = pairs.to_vec();
        v.sort_by(rank_desc);
        v.truncate(k);
        v
    }

    #[test]
    fn topk_matches_full_sort_prefix() {
        let pairs: Vec<(f32, u32)> =
            (0..100u32).map(|i| (((i * 37) % 19) as f32 * 0.5 - 3.0, i)).collect();
        for k in [0, 1, 7, 20, 100, 150] {
            let mut sel = TopK::new(k);
            for &(s, id) in &pairs {
                sel.push(s, id);
            }
            assert_eq!(sel.into_sorted(), full_sort_prefix(&pairs, k), "k = {k}");
        }
    }

    #[test]
    fn topk_sinks_nan_and_breaks_ties_on_id() {
        let top = |k: usize, pairs: &[(f32, u32)]| {
            let mut sel = TopK::new(k);
            for &(s, id) in pairs {
                sel.push(s, id);
            }
            sel.into_ids()
        };
        // NaN sinks below everything, equal scores order by ascending id.
        let pairs = [(1.0, 0), (f32::NAN, 1), (2.0, 2), (2.0, 3), (1.0, 4)];
        assert_eq!(top(3, &pairs), vec![2, 3, 0]);
        // With k ≥ n the NaN still lands dead last.
        assert_eq!(top(8, &pairs), vec![2, 3, 0, 4, 1]);
        // Duplicated scores must not leave the cut-off dependent on
        // iteration order: ties break on ascending id whatever the input
        // order.
        let mut ties = vec![(0.5f32, 9u32), (0.7, 4), (0.5, 2), (0.7, 1), (0.5, 7)];
        assert_eq!(top(3, &ties), vec![1, 4, 2], "descending score, then ascending id");
        ties.reverse();
        assert_eq!(top(3, &ties), vec![1, 4, 2], "input order leaked into the ranking");
        // Several NaN scores (a DP-destroyed model) sink below every finite
        // score and among themselves order by id.
        let with_nan = [(f32::NAN, 0u32), (0.1, 5), (f32::NAN, 3), (0.2, 8)];
        assert_eq!(top(3, &with_nan), vec![8, 5, 0]);
    }

    #[test]
    fn topk_zero_k_retains_nothing() {
        let mut sel = TopK::new(0);
        sel.push(5.0, 1);
        assert!(sel.is_empty());
        assert_eq!(sel.len(), 0);
        assert_eq!(sel.into_ids(), Vec::<u32>::new());
    }
}
