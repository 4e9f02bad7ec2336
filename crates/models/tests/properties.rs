//! Property-based tests for the flat parameter algebra — the code path every
//! aggregation, momentum, clipping and noising operation flows through — and
//! for the chunked kernels, proving the vectorized paths are drop-in for a
//! straightforward scalar reference. The factor clients' sparse FedAvg
//! update is checked bit for bit against the trait's dense default.

use cia_data::UserId;
use cia_models::kernel;
use cia_models::kernel::{axpy, clip_l2, ema, scale_in_place};
use cia_models::params::l2_norm;
use cia_models::{GmfSpec, Participant, PrmeSpec, RelevanceScorer, SharedModel, SharingPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn vec32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len..=len)
}

fn anyvec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    // Unit-scale values over lengths straddling the 8-lane chunk boundary.
    proptest::collection::vec(-1.0f32..1.0, 0..max_len)
}

/// Embedding dimensions covering every GMF mean-relevance arm: the runtime
/// body below and above the monomorphised paper dimension (8), including a
/// multiple of the kernel width (16), and past the stack budget of the
/// hoisted `w = p_u ⊙ h` (80 > 64).
const GMF_DIMS: [usize; 6] = [1, 3, 8, 16, 17, 80];

/// Tolerance for comparing a chunked f32 reduction against an f64 scalar
/// reference: 1e-5, scaled by the sum of absolute terms (f32 rounding is
/// proportional to the magnitudes summed, not to the final value).
fn reduction_tol(abs_terms: f64) -> f64 {
    1e-5 * (1.0 + abs_terms)
}

proptest! {
    #[test]
    fn axpy_zero_is_identity(mut y in vec32(16), x in vec32(16)) {
        let before = y.clone();
        axpy(&mut y, 0.0, &x);
        prop_assert_eq!(y, before);
    }

    #[test]
    fn scale_one_is_identity(mut y in vec32(16)) {
        let before = y.clone();
        scale_in_place(&mut y, 1.0);
        prop_assert_eq!(y, before);
    }

    #[test]
    fn ema_beta_zero_replaces(mut v in vec32(16), theta in vec32(16)) {
        ema(&mut v, 0.0, &theta);
        prop_assert_eq!(v, theta);
    }

    #[test]
    fn ema_beta_one_keeps(mut v in vec32(16), theta in vec32(16)) {
        let before = v.clone();
        ema(&mut v, 1.0, &theta);
        for (a, b) in v.iter().zip(&before) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn ema_stays_within_bounds(mut v in vec32(8), theta in vec32(8), beta in 0.0f32..1.0) {
        // Each coordinate of the EMA lies between the two inputs.
        let before = v.clone();
        ema(&mut v, beta, &theta);
        for ((a, b), r) in before.iter().zip(&theta).zip(&v) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(*r >= lo - 1e-3 && *r <= hi + 1e-3);
        }
    }

    #[test]
    fn clip_never_increases_norm(mut x in vec32(16), c in 0.01f32..50.0) {
        let before = l2_norm(&x);
        clip_l2(&mut x, c);
        let after = l2_norm(&x);
        prop_assert!(after <= before + 1e-3);
        prop_assert!(after <= c + c * 1e-4);
    }

    #[test]
    fn clip_below_threshold_is_identity(mut x in vec32(8)) {
        let c = l2_norm(&x) + 1.0;
        let before = x.clone();
        let f = clip_l2(&mut x, c);
        prop_assert_eq!(f, 1.0);
        prop_assert_eq!(x, before);
    }

    // ---- kernel equivalence: chunked kernels vs scalar references ----

    #[test]
    fn kernel_dot_matches_scalar_reference(a in anyvec(67)) {
        let b: Vec<f32> = a.iter().map(|v| 1.0 - v).collect();
        let reference: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
        let abs_terms: f64 = a.iter().zip(&b).map(|(x, y)| (*x as f64 * *y as f64).abs()).sum();
        let got = kernel::dot(&a, &b) as f64;
        prop_assert!(
            (got - reference).abs() <= reduction_tol(abs_terms),
            "dot {got} vs scalar {reference} (len {})", a.len()
        );
    }

    #[test]
    fn kernel_dot3_matches_scalar_reference(a in anyvec(67)) {
        let b: Vec<f32> = a.iter().map(|v| v * 0.5 + 0.1).collect();
        let c: Vec<f32> = a.iter().map(|v| 0.9 - v).collect();
        let reference: f64 = a
            .iter().zip(&b).zip(&c)
            .map(|((x, y), z)| *x as f64 * *y as f64 * *z as f64)
            .sum();
        let abs_terms: f64 = a
            .iter().zip(&b).zip(&c)
            .map(|((x, y), z)| (*x as f64 * *y as f64 * *z as f64).abs())
            .sum();
        let got = kernel::dot3(&a, &b, &c) as f64;
        prop_assert!(
            (got - reference).abs() <= reduction_tol(abs_terms),
            "dot3 {got} vs scalar {reference} (len {})", a.len()
        );
    }

    #[test]
    fn kernel_ema_matches_scalar_reference(mut v in anyvec(67), beta in 0.0f32..=1.0) {
        let theta: Vec<f32> = v.iter().map(|x| x * -0.7 + 0.2).collect();
        // Elementwise map: same operations in the same order, so equality is
        // exact, not approximate.
        let omb = 1.0 - beta;
        let expected: Vec<f32> =
            v.iter().zip(&theta).map(|(a, t)| beta * a + omb * t).collect();
        kernel::ema(&mut v, beta, &theta);
        prop_assert_eq!(v, expected);
    }

    #[test]
    fn kernel_gemv_matches_scalar_reference(
        x in anyvec(33),
        n_out in 1usize..9,
        relu in any::<bool>(),
    ) {
        prop_assume!(!x.is_empty());
        let n_in = x.len();
        let w: Vec<f32> = (0..n_in * n_out)
            .map(|i| ((i as f32 * 0.613).sin()) * 0.8)
            .collect();
        let bias: Vec<f32> = (0..n_out).map(|o| (o as f32 * 0.37).cos()).collect();
        let mut out = vec![0.0f32; n_out];
        kernel::gemv(&mut out, &w, &x, Some(&bias), relu);
        for o in 0..n_out {
            let mut z = bias[o] as f64;
            let mut abs_terms = 0.0f64;
            for i in 0..n_in {
                let term = w[o * n_in + i] as f64 * x[i] as f64;
                z += term;
                abs_terms += term.abs();
            }
            if relu && z < 0.0 {
                z = 0.0;
            }
            prop_assert!(
                (out[o] as f64 - z).abs() <= reduction_tol(abs_terms),
                "gemv row {o}: {} vs scalar {z}", out[o]
            );
        }
    }

    // ---- Gossip merge: bitwise against a naive scale-then-axpy reference ----

    #[test]
    fn uniform_mix_in_place_matches_the_naive_fold_bitwise(
        len in 0usize..40,
        num_rows in 0usize..6,
        special_every in 0u32..4,
        seed in any::<u64>(),
    ) {
        // Lengths straddle the 8-lane width; 0–5 rows cover the kernel's
        // one-row, two-row and general arms. DP-destroyed models carry NaN
        // and ±inf coordinates, sprinkled in (densely when `special_every`
        // is 1).
        let mut rng = StdRng::seed_from_u64(seed);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let draw = |rng: &mut StdRng| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    if special_every > 0 && rng.gen_range(0..special_every * 8) == 0 {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect()
        };
        let own = draw(&mut rng);
        let rows: Vec<Vec<f32>> = (0..num_rows).map(|_| draw(&mut rng)).collect();
        let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();

        // The naive reference: `scale` then one `axpy` per row, a whole pass
        // each, `(w·y + w·r₁) + w·r₂ + …`.
        let w = 1.0 / (num_rows + 1) as f32;
        let mut expected = own.clone();
        for v in &mut expected {
            *v *= w;
        }
        for row in &rows {
            for (v, &r) in expected.iter_mut().zip(row) {
                *v += w * r;
            }
        }
        let mut got = own.clone();
        kernel::uniform_mix_in_place(&mut got, &row_refs);
        for (k, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert!(
                g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()),
                "coordinate {k} of {len} with {num_rows} rows: {g} vs naive {e}"
            );
        }
    }

    #[test]
    fn uniform_mix_in_place_without_rows_keeps_y(own in anyvec(33)) {
        let mut y = own.clone();
        kernel::uniform_mix_in_place(&mut y, &[]);
        prop_assert_eq!(y, own);
    }

    // ---- GMF mean relevance: bitwise against a naive reference ----

    #[test]
    fn gmf_mean_relevance_matches_naive_reference_bitwise(
        dim_idx in 0usize..GMF_DIMS.len(),
        num_items in 1u32..40,
        list_len in 0usize..60,
        special_every in 0u32..4,
        seed in any::<u64>(),
    ) {
        let d = GMF_DIMS[dim_idx];
        let spec = GmfSpec::new(num_items, d);
        let mut rng = StdRng::seed_from_u64(seed);
        let user: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // DP-destroyed models carry NaN and ±inf coordinates; sprinkle them
        // (densely when `special_every` is 1) into the rows and into `h`.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let agg: Vec<f32> = (0..spec.agg_len())
            .map(|_| {
                if special_every > 0 && rng.gen_range(0..special_every * 8) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        // Scattered ids in arbitrary order, repeats included.
        let items: Vec<u32> = (0..list_len).map(|_| rng.gen_range(0..num_items)).collect();

        let h = &agg[num_items as usize * d..];
        let w: Vec<f32> = user.iter().zip(h).map(|(u, hh)| u * hh).collect();
        let expected = if items.is_empty() {
            0.0
        } else {
            let mut acc = 0.0f32;
            for &j in &items {
                acc += kernel::dot(&w, &agg[j as usize * d..(j as usize + 1) * d]);
            }
            acc / items.len() as f32
        };
        let got = spec.mean_relevance(Some(&user), &agg, &items);
        prop_assert!(
            got.to_bits() == expected.to_bits() || (got.is_nan() && expected.is_nan()),
            "d={d} items={items:?}: {got} vs naive {expected}"
        );
    }
}

/// A read-only view that forwards only the required [`Participant`] hooks,
/// so its `accumulate_update` is the trait's dense default pass.
struct Dense<'a>(&'a dyn Participant);

impl Participant for Dense<'_> {
    fn user(&self) -> UserId {
        self.0.user()
    }
    fn agg_len(&self) -> usize {
        self.0.agg_len()
    }
    fn agg(&self) -> &[f32] {
        self.0.agg()
    }
    fn absorb_agg(&mut self, _agg: &[f32]) {
        unreachable!("read-only view")
    }
    fn train_local(&mut self, _rng: &mut StdRng) -> f32 {
        unreachable!("read-only view")
    }
    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        self.0.snapshot_into(round, slot);
    }
    fn num_examples(&self) -> usize {
        self.0.num_examples()
    }
}

/// Folds the client's update against `reference` into the same non-zero
/// accumulator through its sparse override and through the dense default.
fn assert_sparse_accumulate_is_dense(c: &dyn Participant, reference: &[f32], label: &str) {
    let mut rng = StdRng::seed_from_u64(99);
    let start: Vec<f32> = (0..reference.len()).map(|_| rng.gen_range(0.5f32..1.5)).collect();
    let (mut sparse, mut dense) = (start.clone(), start);
    c.accumulate_update(reference, 0.37, &mut sparse);
    Dense(c).accumulate_update(reference, 0.37, &mut dense);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(bits(&sparse) == bits(&dense), "{label}: sparse update differs from the dense pass");
}

#[test]
fn factor_sparse_accumulate_matches_the_dense_default_bitwise() {
    // GMF and PRME, Full and Share-less, at the monomorphised (8) and a
    // runtime (3) dimension; 2 or 12 train items on a 60-item catalog so
    // the touched-row reset runs both its scatter and its memset branch.
    const ITEMS: u32 = 60;
    for d in [3usize, 8] {
        for policy in [SharingPolicy::Full, SharingPolicy::ShareLess { tau: 0.3 }] {
            for n in [2u32, 12] {
                let gmf = GmfSpec::new(ITEMS, d);
                let prme = PrmeSpec::new(ITEMS, d);
                let items = |u: u32| {
                    let mut v: Vec<u32> = (0..n).map(|k| (u * 7 + k * 5) % ITEMS).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let make = |prme_model: bool, u: u32| -> Box<dyn Participant> {
                    let seed = u64::from(u) + 1;
                    let mut c: Box<dyn Participant> = if prme_model {
                        let sequence = items(u).into_iter().rev().collect();
                        Box::new(prme.build_client(
                            UserId::new(u),
                            items(u),
                            sequence,
                            policy,
                            seed,
                        ))
                    } else {
                        Box::new(gmf.build_client(UserId::new(u), items(u), policy, seed))
                    };
                    c.draw_agg();
                    c
                };
                for prme_model in [false, true] {
                    let label = format!("prme={prme_model} d={d} {policy:?} n={n}");
                    let (mut a, b, c) =
                        (make(prme_model, 0), make(prme_model, 1), make(prme_model, 2));
                    let mut rng = StdRng::seed_from_u64(d as u64 * 31 + u64::from(n));
                    // FedAvg: absorb a global aggregate, then one or two epochs.
                    let global = b.agg().to_vec();
                    a.absorb_agg(&global);
                    for epoch in 1..=2 {
                        a.train_local(&mut rng);
                        assert_sparse_accumulate_is_dense(
                            &*a,
                            &global,
                            &format!("{label} e{epoch}"),
                        );
                    }
                    // Gossip: lend, merge with mail, train; the merged
                    // aggregate is the new reference.
                    let mut slot =
                        SharedModel { owner: a.user(), round: 0, owner_emb: None, agg: Vec::new() };
                    a.lend_snapshot(1, &mut slot);
                    a.merge_agg(&mut slot.agg, None, &[b.agg(), c.agg()]);
                    assert!(slot.agg.is_empty(), "{label}: the merge left a buffer in the push");
                    let merged = a.agg().to_vec();
                    a.train_local(&mut rng);
                    assert_sparse_accumulate_is_dense(&*a, &merged, &format!("{label} merge"));
                }
            }
        }
    }
}
