//! Property-based tests for the data substrate.

use cia_data::{
    jaccard_index, sample_negatives, top_k_similar, GroundTruth, SyntheticConfig, UserId, Zipf,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn sorted_unique(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn jaccard_is_symmetric(a in sorted_unique(200, 40), b in sorted_unique(200, 40)) {
        prop_assert!((jaccard_index(&a, &b) - jaccard_index(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn jaccard_in_unit_interval(a in sorted_unique(200, 40), b in sorted_unique(200, 40)) {
        let j = jaccard_index(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
    }

    #[test]
    fn jaccard_self_is_one(a in sorted_unique(200, 40)) {
        prop_assume!(!a.is_empty());
        prop_assert_eq!(jaccard_index(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_matches_naive(a in sorted_unique(100, 30), b in sorted_unique(100, 30)) {
        use std::collections::BTreeSet;
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let inter = sa.intersection(&sb).count();
        let union = sa.union(&sb).count();
        let expected = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
        prop_assert!((jaccard_index(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn top_k_never_exceeds_k(target in sorted_unique(100, 30), k in 0usize..10) {
        let sets: Vec<Vec<u32>> = vec![vec![1, 2], vec![3], vec![1, 2, 3, 4]];
        let got = top_k_similar(
            &target,
            // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
            sets.iter().enumerate().map(|(u, s)| (UserId::new(u as u32), s.as_slice())),
            k,
        );
        prop_assert!(got.len() <= k);
        // Results are distinct users.
        let mut ids: Vec<u32> = got.iter().map(|u| u.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), got.len());
    }

    #[test]
    fn zipf_sample_in_range(n in 1usize..400, s in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn negatives_avoid_observed(observed in sorted_unique(80, 20), seed in any::<u64>()) {
        let num_items = 100u32;
        let count = 10usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let negs = sample_negatives(&observed, num_items, count, &mut rng);
        prop_assert_eq!(negs.len(), count);
        for &n in &negs {
            prop_assert!(n < num_items);
            prop_assert!(observed.binary_search(&n).is_err());
        }
    }

    #[test]
    fn bitset_ground_truth_matches_naive(
        // A small item universe forces many identical Jaccard values, so the
        // smaller-id tie-break is exercised constantly.
        sets in proptest::collection::vec(sorted_unique(12, 8), 2..14),
        k in 1usize..6,
        // A second population of copies of a few sets: every candidate of
        // an owner ties with the other copies of its set, so the selection
        // must cut through runs of equal Jaccard values by id alone.
        picks in proptest::collection::vec(0usize..3, 2..20),
    ) {
        let copies: Vec<Vec<u32>> = picks.iter().map(|&p| sets[p % sets.len()].clone()).collect();
        for population in [&sets, &copies] {
            let n = population.len();
            // k ≥ n − 1 keeps every candidate: no selection, only the sort.
            for k in [k, n - 1, n, n + 2] {
                let fast = GroundTruth::from_train_sets(population, k);
                let naive = GroundTruth::from_train_sets_naive(population, k);
                prop_assert_eq!(fast.num_targets(), naive.num_targets());
                // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                for owner in 0..n as u32 {
                    prop_assert_eq!(
                        fast.community_of(UserId::new(owner)),
                        naive.community_of(UserId::new(owner)),
                        "owner {} communities diverge at k = {}", owner, k
                    );
                }
            }
        }
    }

    #[test]
    fn generator_is_deterministic(seed in any::<u64>()) {
        let gen = || SyntheticConfig::builder()
            .users(12).items(60).communities(3).interactions_per_user(6)
            .seed(seed).build().generate();
        let a = gen();
        let b = gen();
        prop_assert_eq!(a.records(), b.records());
    }
}
