//! Property-based tests for the attack metrics and momentum state — the
//! arithmetic every reported number flows through.

use cia_core::metrics::{
    best_fraction_floor, community_accuracy, random_bound, rank_desc, top_k_per_column, top_k_users,
};
use cia_core::{membership_entropy, AttackTracker, MomentumTable};
use cia_data::UserId;
use cia_models::SharedModel;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Scores that stress the ranking order: NaN of either sign, both zeros,
/// both infinities, subnormals and repeated ordinary values.
const EDGE_SCORES: [f32; 12] = [
    f32::NAN,
    -f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0,
    -1.0,
    0.5,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::from_bits(1),
];

proptest! {
    #[test]
    fn community_accuracy_is_bounded(
        predicted in proptest::collection::vec(0u32..50, 0..20),
        truth in proptest::collection::vec(0u32..50, 0..20),
        k in 1usize..20,
    ) {
        let acc = community_accuracy(&predicted, &truth, k);
        prop_assert!((0.0..=1.0).contains(&acc) || predicted.len() > k);
        // With predicted.len() <= k the accuracy can never exceed 1.
        if predicted.len() <= k {
            prop_assert!(acc <= 1.0);
        }
    }

    #[test]
    fn perfect_prediction_has_full_accuracy(
        mut members in proptest::collection::btree_set(0u32..100, 1..15),
    ) {
        let truth: Vec<u32> = members.iter().copied().collect();
        let predicted = truth.clone();
        let k = truth.len();
        prop_assert_eq!(community_accuracy(&predicted, &truth, k), 1.0);
        // Shifting every id out of the truth zeroes it.
        let miss: Vec<u32> = truth.iter().map(|v| v + 1000).collect();
        prop_assert_eq!(community_accuracy(&miss, &truth, k), 0.0);
        members.clear();
    }

    #[test]
    fn best_fraction_floor_is_at_most_max(
        accs in proptest::collection::vec(0.0f64..1.0, 1..60),
        frac in 0.01f64..1.0,
    ) {
        let floor = best_fraction_floor(&accs, frac);
        let max = accs.iter().copied().fold(0.0, f64::max);
        let min = accs.iter().copied().fold(1.0, f64::min);
        prop_assert!(floor <= max + 1e-12);
        prop_assert!(floor >= min - 1e-12);
    }

    #[test]
    fn best_fraction_floor_decreases_with_fraction(
        accs in proptest::collection::vec(0.0f64..1.0, 2..60),
    ) {
        // Taking a larger "best" pool can only lower (or keep) the floor.
        let tight = best_fraction_floor(&accs, 0.1);
        let loose = best_fraction_floor(&accs, 0.5);
        prop_assert!(loose <= tight + 1e-12);
    }

    #[test]
    fn random_bound_monotone_in_k(k in 1usize..100, n in 1usize..500) {
        prop_assert!(random_bound(k, n) <= random_bound(k + 1, n));
        prop_assert!((0.0..=1.0).contains(&random_bound(k, n)));
    }

    #[test]
    fn rank_desc_is_a_total_order_with_nans(
        mut pairs in proptest::collection::vec((any::<f32>(), 0u32..1000), 2..40),
    ) {
        // Sorting must not panic even with NaN/inf scores, and must place
        // non-NaN scores in descending order.
        pairs.sort_by(rank_desc);
        let clean: Vec<f32> = pairs
            .iter()
            .map(|p| if p.0.is_nan() { f32::NEG_INFINITY } else { p.0 })
            .collect();
        for w in clean.windows(2) {
            prop_assert!(w[0] >= w[1], "not descending: {} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn top_k_users_is_the_full_sort_prefix(
        picks in proptest::collection::vec((0usize..16, any::<f32>()), 0..60),
        seed in any::<u64>(),
    ) {
        // Each candidate takes an edge score (indices 0..12, so scores
        // repeat often) or an arbitrary one; ids are a shuffled permutation.
        let mut ids: Vec<u32> = (0..).take(picks.len()).collect();
        ids.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let pairs: Vec<(f32, u32)> = picks
            .iter()
            .zip(&ids)
            .map(|(&(pick, any), &id)| (EDGE_SCORES.get(pick).copied().unwrap_or(any), id))
            .collect();
        let mut sorted = pairs.clone();
        sorted.sort_by(rank_desc);
        let n = pairs.len();
        for k in [0, 1, n.saturating_sub(1), n, n + 3] {
            let want: Vec<UserId> =
                sorted.iter().take(k).map(|&(_, id)| UserId::new(id)).collect();
            prop_assert_eq!(top_k_users(k, pairs.iter().copied()), want, "k = {}", k);
        }
    }

    #[test]
    fn top_k_per_column_ranks_each_column_alone(
        // Up to 40 columns, so blocks of 16 columns end mid-matrix.
        shape in (0usize..30, 1usize..40),
        picks in proptest::collection::vec((0usize..16, any::<f32>()), 1200),
        k in 0usize..8,
    ) {
        let (rows, cols) = shape;
        let scores: Vec<f32> = picks[..rows * cols]
            .iter()
            .map(|&(pick, any)| EDGE_SCORES.get(pick).copied().unwrap_or(any))
            .collect();
        // Drop every third row, and each column's own row as the attack
        // drops a target's owner.
        let keep = |id: u32, t: usize| id % 3 != 1 && id as usize != t;
        for k in [k, rows + 2] {
            let got = top_k_per_column(&scores, cols, k, keep);
            prop_assert_eq!(got.len(), cols);
            for (t, got) in got.iter().enumerate() {
                let column = (0..).zip(scores.iter().skip(t).step_by(cols));
                let want = top_k_users(k, column.filter(|&(id, _)| keep(id, t)).map(|(id, &s)| (s, id)));
                prop_assert_eq!(got, &want, "column {} of {}, k = {}", t, cols, k);
            }
        }
    }

    #[test]
    fn tracker_max_is_max_of_history(
        rounds in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3..8), 1..10),
    ) {
        let mut tracker = AttackTracker::new(5, 100);
        let mut best = 0.0f64;
        for (r, accs) in rounds.iter().enumerate() {
            let uppers = vec![1.0; accs.len()];
            tracker.record(r as u64, accs, &uppers, &uppers);
            // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
            let aac = accs.iter().sum::<f64>() / accs.len() as f64;
            best = best.max(aac);
        }
        let out = tracker.outcome();
        prop_assert!((out.max_aac - best).abs() < 1e-9);
        prop_assert_eq!(out.history.len(), rounds.len());
    }

    #[test]
    fn entropy_is_symmetric_and_bounded(p in 0.0f32..=1.0) {
        let e = membership_entropy(p);
        prop_assert!((0.0..=std::f32::consts::LN_2 + 1e-6).contains(&e));
        prop_assert!((e - membership_entropy(1.0 - p)).abs() < 1e-5);
    }

    #[test]
    fn momentum_is_convex_combination(
        a in proptest::collection::vec(-10.0f32..10.0, 4..4usize.wrapping_add(1)),
        b in proptest::collection::vec(-10.0f32..10.0, 4..5),
        beta in 0.0f32..1.0,
    ) {
        let snap = |v: &[f32]| SharedModel {
            owner: UserId::new(0),
            round: 0,
            owner_emb: None,
            agg: v[..4.min(v.len())].to_vec(),
        };
        let sa = snap(&a);
        let sb = snap(&b);
        if sa.agg.len() != sb.agg.len() {
            return Ok(());
        }
        let mut table = MomentumTable::new(1);
        table.observe(0, beta, None, &sa.agg);
        table.observe(0, beta, None, &sb.agg);
        for ((x, y), r) in sa.agg.iter().zip(&sb.agg).zip(table.get(0).unwrap().1) {
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            prop_assert!(*r >= lo - 1e-3 && *r <= hi + 1e-3);
        }
    }
}
