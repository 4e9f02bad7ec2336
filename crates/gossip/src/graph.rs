//! P-out-regular dynamic views and the random peer-sampling service.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Per-node out-views of a P-out-regular digraph, refreshed by a peer
/// sampling service.
///
/// Every node holds exactly `P = out_degree` distinct out-neighbors (never
/// itself), so `|N_out(u)| = P` and `E[|N_in(u)|] = P`, matching the paper's
/// graph model (§III-C).
#[derive(Debug, Clone)]
pub(crate) struct ViewTable {
    views: Vec<Vec<u32>>,
    out_degree: usize,
}

impl ViewTable {
    /// Samples an initial P-out-regular view table over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `out_degree == 0` or `out_degree >= n`.
    pub fn new(n: usize, out_degree: usize, rng: &mut StdRng) -> Self {
        assert!(out_degree > 0, "out-degree must be positive");
        assert!(out_degree < n, "out-degree must be smaller than the node count");
        let mut views = Vec::with_capacity(n);
        for u in 0..n {
            // cia-lint: allow(D05, u < n, the node count; views hold u32 node ids)
            views.push(Self::sample_view(u as u32, n, out_degree, &[], 0, rng));
        }
        ViewTable { views, out_degree }
    }

    /// The current out-view of node `u`.
    pub fn view_of(&self, u: u32) -> &[u32] {
        &self.views[u as usize]
    }

    /// One uniformly random out-neighbor of `u`.
    pub fn random_neighbor(&self, u: u32, rng: &mut StdRng) -> u32 {
        let v = &self.views[u as usize];
        v[rng.gen_range(0..v.len())]
    }

    /// Refreshes `u`'s view uniformly at random (Rand-Gossip peer sampling).
    pub fn refresh_random(&mut self, u: u32, rng: &mut StdRng) {
        let n = self.views.len();
        self.views[u as usize] = Self::sample_view(u, n, self.out_degree, &[], 0, rng);
    }

    /// Refreshes `u`'s view keeping the `keep` highest-scoring candidates
    /// (Pers-Gossip): `scored` holds `(peer, score)` candidates — typically
    /// the current view plus recently heard senders — and the remaining slots
    /// are filled uniformly at random (the exploration share).
    pub fn refresh_personalized(
        &mut self,
        u: u32,
        scored: &mut [(u32, f32)],
        keep: usize,
        rng: &mut StdRng,
    ) {
        let n = self.views.len();
        // Highest score first; dedup peers keeping their best score.
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("finite scores").then_with(|| a.0.cmp(&b.0))
        });
        let mut kept: Vec<u32> = Vec::with_capacity(keep);
        for &(peer, _) in scored.iter() {
            if peer != u && !kept.contains(&peer) {
                kept.push(peer);
                if kept.len() == keep {
                    break;
                }
            }
        }
        let view = Self::sample_view(u, n, self.out_degree, &kept, kept.len(), rng);
        self.views[u as usize] = view;
    }

    /// Samples a view of size `out_degree` containing the first
    /// `num_pinned` entries of `pinned`, completed with uniform distinct
    /// peers (never `u`).
    fn sample_view(
        u: u32,
        n: usize,
        out_degree: usize,
        pinned: &[u32],
        num_pinned: usize,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let mut view: Vec<u32> = pinned.iter().take(num_pinned.min(out_degree)).copied().collect();
        // Rejection-sample the remainder; fall back to a shuffle for tiny n.
        let mut guard = 0;
        while view.len() < out_degree {
            guard += 1;
            if guard > 50 * out_degree {
                let mut all: Vec<u32> =
                    // cia-lint: allow(D05, n is the node count; views hold u32 node ids)
                    (0..n as u32).filter(|&v| v != u && !view.contains(&v)).collect();
                all.shuffle(rng);
                view.extend(all.into_iter().take(out_degree - view.len()));
                break;
            }
            // cia-lint: allow(D05, n is the node count; views hold u32 node ids)
            let cand = rng.gen_range(0..n as u32);
            if cand != u && !view.contains(&cand) {
                view.push(cand);
            }
        }
        view
    }
}

/// Rate of the Exp-distributed view-refresh interval (§V-B).
const VIEW_REFRESH_RATE: f64 = 0.1;

/// Samples a view-refresh interval (in rounds) from Exp(0.1), rounded up —
/// the paper's periodic view change `p ~ Exp(0.1)` (§V-B).
pub(crate) fn sample_exp_interval(rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (-u.ln() / VIEW_REFRESH_RATE).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn views_are_regular_and_self_free() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = ViewTable::new(50, 3, &mut rng);
        assert_eq!(t.views.len(), 50);
        for u in 0..50u32 {
            let v = t.view_of(u);
            assert_eq!(v.len(), 3);
            assert!(!v.contains(&u));
            let mut uniq = v.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3);
        }
    }

    #[test]
    fn random_refresh_changes_views_over_time() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = ViewTable::new(30, 3, &mut rng);
        let before = t.view_of(5).to_vec();
        let mut changed = false;
        for _ in 0..20 {
            t.refresh_random(5, &mut rng);
            if t.view_of(5) != before.as_slice() {
                changed = true;
                break;
            }
        }
        assert!(changed, "refresh never changed the view");
    }

    #[test]
    fn peer_sampling_is_roughly_uniform() {
        // Over many refreshes, every peer should be picked a similar number
        // of times (the uniformity property of view shuffling [19]).
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20;
        let mut t = ViewTable::new(n, 3, &mut rng);
        let mut counts = vec![0usize; n];
        for _ in 0..3000 {
            t.refresh_random(0, &mut rng);
            for &v in t.view_of(0) {
                counts[v as usize] += 1;
            }
        }
        assert_eq!(counts[0], 0, "node never samples itself");
        let expected = 3000.0 * 3.0 / (n - 1) as f64;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "peer {i} sampled {c} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn personalized_refresh_keeps_best_scored() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut t = ViewTable::new(30, 4, &mut rng);
        let mut scored = vec![(7u32, 0.9f32), (3, 0.8), (12, 0.1), (7, 0.2), (9, 0.5)];
        t.refresh_personalized(0, &mut scored, 2, &mut rng);
        let v = t.view_of(0);
        assert_eq!(v.len(), 4);
        assert!(v.contains(&7) && v.contains(&3), "best peers retained: {v:?}");
    }

    #[test]
    fn personalized_refresh_never_pins_self() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = ViewTable::new(10, 3, &mut rng);
        let mut scored = vec![(0u32, 99.0f32), (4, 0.5)];
        t.refresh_personalized(0, &mut scored, 2, &mut rng);
        assert!(!t.view_of(0).contains(&0));
        assert!(t.view_of(0).contains(&4));
    }

    #[test]
    fn exp_intervals_have_correct_mean() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| sample_exp_interval(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        // E[ceil(Exp(0.1))] ≈ 10.5.
        assert!((mean - 10.5).abs() < 0.3, "mean interval {mean}");
        assert!((0..100).all(|_| sample_exp_interval(&mut rng) >= 1));
    }

    #[test]
    #[should_panic(expected = "out-degree must be smaller")]
    fn rejects_degree_ge_n() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = ViewTable::new(3, 3, &mut rng);
    }
}
