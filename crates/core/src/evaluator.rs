//! Target relevance evaluation, including the Share-less adaptation.

use cia_models::kernel::cache_aligned;
use cia_models::parallel::par_map;
use cia_models::RelevanceScorer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// Models per scoring tile: one model per SIMD lane of the kernels.
pub(crate) const TILE: usize = cia_models::kernel::LANES;

thread_local! {
    /// Per-thread scratch for the full-sharing tile of
    /// [`ItemSetEvaluator`]: the tile's scores model-minor (`[item][model]`,
    /// 54 KB at paper scale), then one catalog score row. Tiles are scored
    /// inside `par_for_each_mut` workers, so a worker reuses it for every tile.
    static TILE_SCORES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Computes `Ŷ(Θ, V_target)` for every registered target given
/// (momentum-averaged) models.
///
/// The attack scores models in tiles of up to [`cia_models::kernel::LANES`]
/// through [`RelevanceEvaluator::relevance_tile`]. Each model's row of a
/// tile must be bit-identical to scoring that model alone, so neither the
/// grouping of models into tiles nor `CIA_THREADS` ever changes a score.
/// The recsys evaluator runs one model per SIMD lane, and each lane
/// performs exactly the float operations of the one-model path, in the same
/// order. The MNIST experiment in `cia-experiments` keeps the per-model
/// default, demonstrating that the attack is model-agnostic (§VIII-E).
pub trait RelevanceEvaluator: Send + Sync {
    /// Number of registered targets.
    fn num_targets(&self) -> usize;

    /// Refresh per-target adversary state against current public parameters
    /// (trains the fictive embeddings of §IV-C under Share-less; a no-op
    /// under full sharing).
    fn prepare(&mut self, agg: &[f32], seed: u64);

    /// Relevance of one model for one target.
    fn relevance_one(&self, owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32;

    /// Relevance of one model for all targets, written into `out`: the
    /// one-model entry point, which the default
    /// [`RelevanceEvaluator::relevance_tile`] calls per model and
    /// `perfbench/tracer` wraps to time scoring per model. The default loops
    /// [`RelevanceEvaluator::relevance_one`]; [`ItemSetEvaluator`] scores a
    /// one-model tile.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `out.len() != num_targets()`.
    fn relevance_all(&self, owner_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        for (t, o) in out.iter_mut().enumerate() {
            *o = self.relevance_one(owner_emb, agg, t);
        }
    }

    /// Relevance of up to [`cia_models::kernel::LANES`] models
    /// `(owner_emb, agg)` for all targets: row `m` of `out` (the
    /// `num_targets()` values from `m * num_targets()`) is model `m`'s, and
    /// must be bit-identical to `relevance_all` on that model alone. The
    /// default scores each model with [`RelevanceEvaluator::relevance_all`].
    ///
    /// # Panics
    ///
    /// Implementations may panic when given more than `LANES` models or when
    /// `out.len() != models.len() * num_targets()`.
    fn relevance_tile(&self, models: &[(Option<&[f32]>, &[f32])], out: &mut [f32]) {
        let nt = self.num_targets();
        for (m, &(owner_emb, agg)) in models.iter().enumerate() {
            self.relevance_all(owner_emb, agg, &mut out[m * nt..(m + 1) * nt]);
        }
    }
}

/// The recommender-system evaluator: targets are item sets, relevance is the
/// mean per-item score assigned by the model (§IV-B).
///
/// Under the Share-less policy the received models carry no user embedding;
/// the adversary trains one fictive embedding `e_A` per target that "likes"
/// the target items and scores with it instead (§IV-C). Call
/// [`RelevanceEvaluator::prepare`] whenever fresh public parameters are
/// available; it is cheap and the embeddings are reused until the next call.
pub struct ItemSetEvaluator<S: RelevanceScorer> {
    scorer: S,
    targets: Vec<Vec<u32>>,
    share_less: bool,
    adversary_embs: Vec<Option<Vec<f32>>>,
}

impl<S: RelevanceScorer> ItemSetEvaluator<S> {
    /// Creates the evaluator. Target item sets must be sorted and
    /// deduplicated; `share_less` selects the fictive-embedding adaptation.
    ///
    /// # Panics
    ///
    /// Panics if any target is not strictly ascending (the fictive-embedding
    /// training binary-searches it) or references an item outside the
    /// scorer's catalog.
    pub fn new(scorer: S, targets: Vec<Vec<u32>>, share_less: bool) -> Self {
        let n = scorer.num_items();
        for (i, t) in targets.iter().enumerate() {
            assert!(t.windows(2).all(|p| p[0] < p[1]), "target {i} is not sorted and deduplicated");
            assert!(
                t.iter().all(|&it| it < n),
                "target {i} references an item outside the catalog"
            );
        }
        let adversary_embs = vec![None; targets.len()];
        ItemSetEvaluator { scorer, targets, share_less, adversary_embs }
    }

    /// The registered target item sets.
    pub fn targets(&self) -> &[Vec<u32>] {
        &self.targets
    }

    /// The underlying scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }
}

impl<S: RelevanceScorer> RelevanceEvaluator for ItemSetEvaluator<S> {
    fn num_targets(&self) -> usize {
        self.targets.len()
    }

    fn prepare(&mut self, agg: &[f32], seed: u64) {
        if !self.share_less {
            return;
        }
        // Warm-start each fictive embedding from the previous call's
        // solution, if any: public parameters drift slowly, so a short
        // polish replaces full retraining. The momentum attack calls this
        // again only when `eval_every == 1` (every fourth round); with a
        // larger `eval_every` its refresh condition never holds, so every
        // scenario trains the embeddings once, from scratch.
        let (scorer, targets, prev) = (&self.scorer, &self.targets, &self.adversary_embs);
        self.adversary_embs = par_map(targets.len(), |t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            scorer.train_adversary_embedding(agg, &targets[t], prev[t].as_deref(), &mut rng)
        });
    }

    fn relevance_one(&self, owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32 {
        let emb = if self.share_less { self.adversary_embs[target].as_deref() } else { owner_emb };
        self.scorer.mean_relevance(emb, agg, &self.targets[target])
    }

    fn relevance_all(&self, owner_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        self.relevance_tile(&[(owner_emb, agg)], out);
    }

    fn relevance_tile(&self, models: &[(Option<&[f32]>, &[f32])], out: &mut [f32]) {
        let nt = self.targets.len();
        assert!(models.len() <= TILE, "at most {TILE} models per tile");
        assert_eq!(out.len(), models.len() * nt, "one output row per model");
        if self.share_less {
            // Each target's fictive embedding scores every model.
            let aggs: Vec<&[f32]> = models.iter().map(|&(_, agg)| agg).collect();
            let queries: Vec<_> = (self.adversary_embs.iter().map(Option::as_deref))
                .zip(self.targets.iter().map(Vec::as_slice))
                .collect();
            self.scorer.mean_relevance_tile(&aggs, &queries, out);
            return;
        }
        // Full sharing: score each model's catalog once, model-minor, then
        // take every target's mean for all lanes at once.
        let n = self.scorer.num_items() as usize;
        TILE_SCORES.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (tile, row) = cache_aligned(scratch, n * (TILE + 1)).split_at_mut(n * TILE);
            for (m, &(owner_emb, agg)) in models.iter().enumerate() {
                self.scorer.score_item_range(owner_emb, agg, 0, row);
                for (i, &s) in row.iter().enumerate() {
                    tile[i * TILE + m] = s;
                }
            }
            for (t, items) in self.targets.iter().enumerate() {
                // Each lane adds in list order from −0.0, the value
                // `Iterator::<f32>::sum` starts from. `mean_relevance`
                // starts from +0.0 instead; the two differ only on a target
                // whose every item scores −0.0 (a PRME item at distance 0;
                // a GMF dot is never −0.0). Lanes past `models.len()` add
                // stale scores that are never read.
                let mut acc = [-0.0f32; TILE];
                for &i in items {
                    let scores = &tile[i as usize * TILE..][..TILE];
                    for m in 0..TILE {
                        acc[m] += scores[m];
                    }
                }
                let len = items.len() as f32;
                for (m, &a) in acc.iter().take(models.len()).enumerate() {
                    out[m * nt + t] = if items.is_empty() { 0.0 } else { a / len };
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::UserId;
    use cia_models::{GmfSpec, Participant, SharingPolicy};

    fn trained_gmf(dim: usize) -> (GmfSpec, cia_models::SharedModel) {
        let spec = GmfSpec::new(40, dim);
        let mut c = spec.build_client(UserId::new(0), vec![1, 2, 3], SharingPolicy::Full, 5);
        c.draw_agg();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..40 {
            c.train_local(&mut rng);
        }
        let snap = c.snapshot(0);
        (spec, snap)
    }

    #[test]
    fn relevance_all_matches_relevance_one() {
        // A one-model tile (the full-catalog gemv + in-order mean) and
        // `mean_relevance` run the same dots and the same sum order: they
        // agree bit for bit, on every GMF dimension arm.
        for dim in [3, 4, 8, 16, 80] {
            let (spec, snap) = trained_gmf(dim);
            let targets = vec![vec![1, 2], vec![10, 11, 12], vec![], vec![0, 5, 17, 38, 39]];
            let ev = ItemSetEvaluator::new(spec, targets, false);
            let mut out = vec![0.0f32; 4];
            ev.relevance_all(snap.owner_emb.as_deref(), &snap.agg, &mut out);
            for (t, &batched) in out.iter().enumerate() {
                let one = ev.relevance_one(snap.owner_emb.as_deref(), &snap.agg, t);
                assert_eq!(
                    batched.to_bits(),
                    one.to_bits(),
                    "d={dim} target {t}: {batched} vs {one}"
                );
            }
            assert_eq!(out[2], 0.0);
        }
    }

    #[test]
    fn share_less_relevance_all_matches_naive_reference() {
        let (spec, snap) = trained_gmf(4);
        let (n, d) = (spec.num_items() as usize, spec.dim());
        let targets = vec![vec![1, 2, 3], vec![0, 7, 19, 33, 39], vec![]];
        let mut ev = ItemSetEvaluator::new(spec, targets.clone(), true);
        ev.prepare(&snap.agg, 9);
        let mut out = vec![f32::NAN; targets.len()];
        ev.relevance_all(None, &snap.agg, &mut out);
        // Naive reference: each target's fictive embedding, `w = e_A ⊙ h`,
        // one `dot` per target item summed in order.
        let h = &snap.agg[n * d..];
        for (t, items) in targets.iter().enumerate() {
            let emb = ev.adversary_embs[t].as_deref().expect("prepared embedding");
            let w: Vec<f32> = emb.iter().zip(h).map(|(e, hh)| e * hh).collect();
            let expected = if items.is_empty() {
                0.0
            } else {
                let mut acc = 0.0f32;
                for &j in items {
                    acc += cia_models::kernel::dot(&w, &snap.agg[j as usize * d..][..d]);
                }
                acc / items.len() as f32
            };
            assert_eq!(
                out[t].to_bits(),
                expected.to_bits(),
                "target {t}: {} vs {expected}",
                out[t]
            );
        }
    }

    #[test]
    fn own_items_outscore_foreign_items() {
        let (spec, snap) = trained_gmf(4);
        let ev = ItemSetEvaluator::new(spec, vec![vec![1, 2, 3], vec![30, 31, 32]], false);
        let mut out = vec![0.0f32; 2];
        ev.relevance_all(snap.owner_emb.as_deref(), &snap.agg, &mut out);
        assert!(out[0] > out[1], "own {} !> foreign {}", out[0], out[1]);
    }

    #[test]
    fn share_less_uses_fictive_embeddings() {
        let (spec, snap) = trained_gmf(4);
        let mut ev = ItemSetEvaluator::new(spec, vec![vec![1, 2, 3]], true);
        ev.prepare(&snap.agg, 9);
        // Share-less models come without an embedding; scoring must work.
        let r = ev.relevance_one(None, &snap.agg, 0);
        assert!(r.is_finite());
        // The fictive embedding prefers its target over foreign items.
        let mut ev2 =
            ItemSetEvaluator::new(GmfSpec::new(40, 4), vec![vec![1, 2, 3], vec![30, 31, 32]], true);
        ev2.prepare(&snap.agg, 9);
        let on = ev2.relevance_one(None, &snap.agg, 0);
        let emb0_on_foreign = {
            // score target 1's items with target 0's embedding by reusing
            // relevance_one on a fresh evaluator whose target 0 is foreign.
            let mut swapped =
                ItemSetEvaluator::new(GmfSpec::new(40, 4), vec![vec![30, 31, 32]], true);
            // Train the same embedding (same seed/target index) then score.
            swapped.adversary_embs = vec![ev2.adversary_embs[0].clone()];
            swapped.relevance_one(None, &snap.agg, 0)
        };
        assert!(on > emb0_on_foreign, "on {on} !> foreign {emb0_on_foreign}");
    }

    #[test]
    #[should_panic(expected = "target 1 is not sorted and deduplicated")]
    fn rejects_unsorted_targets() {
        let spec = GmfSpec::new(10, 4);
        let _ = ItemSetEvaluator::new(spec, vec![vec![1, 2], vec![5, 3]], true);
    }

    #[test]
    #[should_panic(expected = "target 0 is not sorted and deduplicated")]
    fn rejects_duplicate_target_items() {
        let spec = GmfSpec::new(10, 4);
        let _ = ItemSetEvaluator::new(spec, vec![vec![4, 4]], false);
    }

    #[test]
    #[should_panic(expected = "outside the catalog")]
    fn rejects_out_of_range_targets() {
        let spec = GmfSpec::new(10, 4);
        let _ = ItemSetEvaluator::new(spec, vec![vec![99]], false);
    }
}
