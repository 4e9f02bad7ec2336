//! Differential test of tiled relevance scoring against the per-model path.
//!
//! The attack scores momentum models in tiles of up to `kernel::LANES`,
//! one model per SIMD lane (`RelevanceEvaluator::relevance_tile`). Every
//! lane must equal `relevance_one` on that model alone, bit for bit, under
//! full sharing (the catalog scores summed per target) and Share-less (each
//! target's fictive embedding scoring every model). The tables have holes,
//! so some tiles are partial, and the dimensions cover GMF's d = 8 arm and
//! its runtime-d arm. PRME runs the scorer's default per-model tile.

use cia_core::{ItemSetEvaluator, RelevanceEvaluator};
use cia_models::kernel::LANES;
use cia_models::{GmfSpec, PrmeSpec, RelevanceScorer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: [usize; 3] = [3, 8, 16];

/// One user's momentum: the owner embedding and the aggregatable parameters.
type Model = (Vec<f32>, Vec<f32>);

fn uniform(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// A momentum table of `users` entries, about a quarter of them unseen. The
/// first seen model's last `emb_len` parameters (GMF's `h`) are zero, so its
/// scores are zeros of either sign.
fn momentum_table(
    rng: &mut StdRng,
    users: usize,
    emb_len: usize,
    agg_len: usize,
) -> Vec<Option<Model>> {
    let mut table: Vec<Option<Model>> = (0..users)
        .map(|_| rng.gen_bool(0.75).then(|| (uniform(rng, emb_len), uniform(rng, agg_len))))
        .collect();
    if let Some((_, agg)) = table.iter_mut().flatten().next() {
        agg[agg_len - emb_len..].fill(0.0);
    }
    table
}

/// Random sorted target item sets over `items`, one of them empty.
fn targets(rng: &mut StdRng, items: u32) -> Vec<Vec<u32>> {
    let mut targets: Vec<Vec<u32>> = (0..rng.gen_range(1..6))
        .map(|_| {
            let mut t: Vec<u32> =
                (0..rng.gen_range(1..12)).map(|_| rng.gen_range(0..items)).collect();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    let empty = rng.gen_range(0..=targets.len());
    targets.insert(empty, Vec::new());
    targets
}

/// Scores `table` in blocks of `LANES` user ids, the seen users of a block
/// as one tile, and compares every row with `relevance_one`.
fn tiles_match_relevance_one<S: RelevanceScorer>(
    ev: &ItemSetEvaluator<S>,
    table: &[Option<Model>],
    share_less: bool,
) -> Result<(), TestCaseError> {
    let nt = ev.num_targets();
    for block in table.chunks(LANES) {
        let models: Vec<(Option<&[f32]>, &[f32])> = block
            .iter()
            .flatten()
            .map(|(emb, agg)| ((!share_less).then_some(emb.as_slice()), agg.as_slice()))
            .collect();
        let mut out = vec![f32::NAN; models.len() * nt];
        ev.relevance_tile(&models, &mut out);
        for (m, &(emb, agg)) in models.iter().enumerate() {
            for t in 0..nt {
                let (tile, one) = (out[m * nt + t], ev.relevance_one(emb, agg, t));
                prop_assert_eq!(
                    tile.to_bits(),
                    one.to_bits(),
                    "lane {} of {}, target {}: {} vs {}",
                    m,
                    models.len(),
                    t,
                    tile,
                    one
                );
            }
        }
    }
    Ok(())
}

/// Builds the evaluator (under Share-less, fictive embeddings trained
/// against a random public model) and a momentum table for `scorer`, then
/// checks the tiles.
fn check<S: RelevanceScorer>(
    scorer: S,
    seed: u64,
    users: usize,
    share_less: bool,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (emb_len, agg_len) = (scorer.user_emb_len(), scorer.agg_len());
    let targets = targets(&mut rng, scorer.num_items());
    let reference = uniform(&mut rng, agg_len);
    let mut ev = ItemSetEvaluator::new(scorer, targets, share_less);
    ev.prepare(&reference, seed);
    let table = momentum_table(&mut rng, users, emb_len, agg_len);
    tiles_match_relevance_one(&ev, &table, share_less)
}

proptest! {
    #[test]
    fn gmf_tiles_match_relevance_one(
        seed in any::<u64>(),
        users in 1usize..=20,
        dim in 0usize..3,
        items in 1u32..40,
        share_less in any::<bool>(),
    ) {
        let spec = GmfSpec::new(items, DIMS[dim]);
        check(spec, seed, users, share_less)?;
    }

    #[test]
    fn prme_tiles_match_relevance_one(
        seed in any::<u64>(),
        users in 1usize..=20,
        dim in 0usize..3,
        items in 1u32..40,
        share_less in any::<bool>(),
    ) {
        let spec = PrmeSpec::new(items, DIMS[dim]);
        check(spec, seed, users, share_less)?;
    }
}
