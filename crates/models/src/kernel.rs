//! Vectorization-friendly f32 kernels shared by every hot path.
//!
//! Every experiment in the paper reduces to a handful of primitives run
//! millions of times: catalog scoring (Eq. 3), per-sender momentum EMAs
//! (Eq. 4), MLP forward/backward for the AIA classifier and the MNIST
//! universality run, and DP clipping. This module implements those primitives
//! once, in a shape the compiler reliably auto-vectorizes:
//!
//! * **Chunked accumulation.** Reductions ([`dot`], [`dot3`], [`sq_norm`])
//!   keep [`LANES`] independent partial sums and fold the input in
//!   `LANES`-wide chunks. A naive `acc += a[i] * b[i]` loop is a serial
//!   dependency chain — each add waits on the previous one (4-5 cycles on
//!   current x86), and the compiler may not reassociate float math on its
//!   own. Eight independent accumulators break the chain, letting the backend
//!   use SIMD lanes and/or overlapping scalar FMAs; the tail (`len % LANES`)
//!   is handled separately.
//! * **Elementwise maps** ([`axpy`], [`ema`], [`scale_in_place`]) are written
//!   over `chunks_exact` pairs so the iterator bounds are known and the loop
//!   body vectorizes without bounds checks.
//! * **Fused [`gemv`]** computes `out = W·x + b` with an optional ReLU in one
//!   pass, so MLP layers need no intermediate buffer; [`gemv_t`] and [`ger`]
//!   cover the transposed product and the rank-1 gradient update of
//!   backpropagation.
//!
//! # Determinism
//!
//! f32 addition is not associative, so the summation *order* is part of the
//! result. Each kernel uses one fixed order — lane `l` accumulates indices
//! `l, l+LANES, l+2·LANES, …`, lanes are folded pairwise, then the tail is
//! added left-to-right — which is identical on every platform and every run.
//! The results differ from a plain left-to-right sum by O(ε·len) rounding,
//! which is why the equivalence property tests compare against a scalar
//! reference with a 1e-5/ULP-scaled tolerance rather than bit equality.

/// Number of independent accumulator lanes used by the reduction kernels.
pub const LANES: usize = 8;

/// Folds the `LANES` partial sums pairwise (a fixed, platform-independent
/// reduction tree).
#[inline(always)]
fn fold(acc: [f32; LANES]) -> f32 {
    let a = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    (a[0] + a[2]) + (a[1] + a[3])
}

/// Dot product `Σ a[i]·b[i]` with chunked accumulation.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut sum = fold(acc);
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        sum += xa * xb;
    }
    sum
}

/// Triple product `Σ a[i]·b[i]·c[i]` — GMF's `p_u ⊙ h · q_i` score without
/// materializing the elementwise product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
#[inline]
pub fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot3 length mismatch");
    assert_eq!(a.len(), c.len(), "dot3 length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut cc = c.chunks_exact(LANES);
    for ((xa, xb), xc) in ca.by_ref().zip(cb.by_ref()).zip(cc.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l] * xc[l];
        }
    }
    let mut sum = fold(acc);
    for ((xa, xb), xc) in ca.remainder().iter().zip(cb.remainder()).zip(cc.remainder()) {
        sum += xa * xb * xc;
    }
    sum
}

/// Sum of squares `Σ x[i]²`, accumulated in f64 (norms feed DP clipping,
/// where cancellation matters more than speed; f64 SIMD still applies).
#[must_use]
#[inline]
pub fn sq_norm(x: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut cx = x.chunks_exact(LANES);
    for c in cx.by_ref() {
        for l in 0..LANES {
            acc[l] += c[l] as f64 * c[l] as f64;
        }
    }
    let a = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    let mut sum = (a[0] + a[2]) + (a[1] + a[3]);
    for v in cx.remainder() {
        sum += *v as f64 * *v as f64;
    }
    sum
}

/// `y ← y + a·x` (BLAS `axpy`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    let mut cy = y.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    for (wy, wx) in cy.by_ref().zip(cx.by_ref()) {
        for l in 0..LANES {
            wy[l] += a * wx[l];
        }
    }
    for (wy, wx) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *wy += a * wx;
    }
}

/// Exponential moving average `v ← β·v + (1−β)·θ` (the attack's Eq. 4).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn ema(v: &mut [f32], beta: f32, theta: &[f32]) {
    assert_eq!(v.len(), theta.len(), "ema length mismatch");
    // Elementwise, so a plain zip loop vectorizes cleanly at any width (the
    // chunked form this replaced lost to it once AVX2 became the target);
    // per-element results are identical either way.
    let omb = 1.0 - beta;
    for (wv, wt) in v.iter_mut().zip(theta) {
        *wv = beta * *wv + omb * wt;
    }
}

/// `y ← a·y` in place.
#[inline]
pub fn scale_in_place(y: &mut [f32], a: f32) {
    for v in y.iter_mut() {
        *v *= a;
    }
}

/// Scales `x` so its L2 norm is at most `c` (DP-SGD clipping); returns the
/// factor applied (1.0 when no clipping was needed).
///
/// # Panics
///
/// Panics if `c` is not positive.
pub fn clip_l2(x: &mut [f32], c: f32) -> f32 {
    assert!(c > 0.0, "clipping threshold must be positive");
    let n = sq_norm(x).sqrt() as f32;
    if n > c {
        let f = c / n;
        scale_in_place(x, f);
        f
    } else {
        1.0
    }
}

/// Deterministic polynomial `e^x` for f32 (relative error ≲ 2·10⁻⁷).
///
/// libm's `expf` costs ~17 ns per call on commodity hardware and sits inside
/// every sigmoid of every SGD step — the dominant cost of a paper-scale
/// training round. This version is ~12 flops: range-reduce
/// `x·log₂e = n + f` with `f ∈ [−0.5, 0.5]` via the round-to-nearest magic
/// constant, evaluate `2^f` as a degree-6 Taylor polynomial in `f·ln 2`, and
/// scale by `2^n` through exponent-bit arithmetic.
///
/// The result saturates at `2^±126` instead of overflowing to infinity or
/// flushing to zero (callers divide by `1 + e^x`, where saturation is
/// harmless), and NaN propagates. Pure f32 arithmetic plus bit casts, so the
/// result is identical on every platform and thread count.
#[must_use]
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    // Clamping x (not the scaled argument) keeps the reduced residual small
    // and the biased exponent inside (0, 255): e^±87 is still a normal f32.
    let x = x.clamp(-87.0, 87.0);
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³: adding it rounds to nearest
    let nf = (x * LOG2_E + MAGIC) - MAGIC;
    // Cody–Waite two-constant reduction: f = x − n·ln2 stays accurate even
    // at large |x|, where a single-constant split loses low bits.
    const LN2_HI: f32 = f32::from_bits(0x3F31_8000); // high bits of ln2
    const LN2_LO: f32 = -2.121_944_4e-4;
    let f = (x - nf * LN2_HI) - nf * LN2_LO;
    // e^f over f ∈ [−0.347, 0.347]: degree-6 Taylor, truncation ≤ 2·10⁻⁸.
    #[allow(clippy::excessive_precision)]
    let p = 1.0
        + f * (1.0
            + f * (0.5
                + f * (0.166_666_67
                    + f * (0.041_666_668 + f * (0.008_333_334 + f * 0.001_388_889)))));
    // NaN falls through: `nf as i32` is 0, the scale is finite, and `p` stays
    // NaN.
    // cia-lint: allow(D05, IEEE-754 exponent assembly: nf is clamped to the representable range, so nf+127 is the 8-bit biased exponent)
    let scale = f32::from_bits((((nf as i32) + 127) as u32) << 23);
    p * scale
}

/// Out-of-place uniform mean `y ← w·own + Σᵢ w·rowsᵢ` with
/// `w = 1/(rows.len()+1)` — gossip neighborhood averaging (Algorithm 2,
/// line 7) written into a buffer that is neither input, so the node's own
/// parameters can stay readable in the model it pushed this round.
///
/// The per-coordinate addition order is that of a `scale` followed by one
/// `axpy` per row (`(w·own + w·r₁) + w·r₂ + …`), so the result is
/// bit-identical to copying `own` into `y` and folding the rows in place.
/// With no rows `w` is 1 and `y` receives `1·own`.
///
/// # Panics
///
/// Panics if `own` or any row differs in length from `y`.
pub fn uniform_mix_into(y: &mut [f32], own: &[f32], rows: &[&[f32]]) {
    let w = 1.0 / (rows.len() + 1) as f32;
    assert_eq!(own.len(), y.len(), "uniform_mix_into length mismatch");
    for row in rows {
        assert_eq!(row.len(), y.len(), "uniform_mix_into length mismatch");
    }
    match rows {
        [] => {
            for (v, &o) in y.iter_mut().zip(own) {
                *v = w * o;
            }
        }
        [r0] => {
            for ((v, &o), &a) in y.iter_mut().zip(own).zip(*r0) {
                *v = w * o + w * a;
            }
        }
        [r0, r1] => {
            for (((v, &o), &a), &b) in y.iter_mut().zip(own).zip(*r0).zip(*r1) {
                *v = (w * o + w * a) + w * b;
            }
        }
        _ => {
            for (k, (v, &o)) in y.iter_mut().zip(own).enumerate() {
                let mut acc = w * o;
                for row in rows {
                    acc += w * row[k];
                }
                *v = acc;
            }
        }
    }
}

/// Applies the logistic sigmoid `1 / (1 + e^−x)` to every element in place.
///
/// [`fast_exp`] is branch-free (its clamp and bit manipulation lower to
/// elementwise vector ops), so this loop auto-vectorizes — the batched SGD
/// step evaluates a whole sampling group's sigmoids for close to the price
/// of one.
#[inline]
pub fn sigmoid_in_place(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = 1.0 / (1.0 + fast_exp(-*x));
    }
}

/// Deterministic polynomial `ln x` for normal positive f32 (≈ 1 ulp).
///
/// The binary-cross-entropy loss of every SGD step calls `ln` once; libm's
/// `logf` costs ~16 ns. This version splits `x = m·2^e` through the bits
/// (normalizing `m` into `[√2/2, √2)`) and evaluates
/// `ln m = 2·atanh r, r = (m−1)/(m+1), |r| ≤ 0.172` as a degree-9 odd
/// polynomial. Zero, negatives, NaN, infinity and subnormals take the libm
/// path — the exponent split assumes a normal positive input.
#[must_use]
#[inline]
pub fn fast_ln(x: f32) -> f32 {
    if !x.is_finite() || x < f32::MIN_POSITIVE {
        return x.ln();
    }
    let bits = x.to_bits();
    // cia-lint: allow(D05, biased exponent field is 8 bits; the i32 subtraction lives in [-127, 128])
    let mut e = ((bits >> 23) as i32) - 127;
    let mut m = f32::from_bits((bits & 0x007F_FFFF) | 0x3F80_0000); // [1, 2)
    if m >= std::f32::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let r = (m - 1.0) / (m + 1.0);
    let r2 = r * r;
    // 2·atanh r = 2r(1 + r²/3 + r⁴/5 + r⁶/7 + r⁸/9); the truncated r¹⁰/11
    // term is ≤ 2·10⁻⁹ at |r| ≤ 0.172.
    #[allow(clippy::excessive_precision)]
    let p = 2.0
        * r
        * (1.0 + r2 * (0.333_333_34 + r2 * (0.2 + r2 * (0.142_857_14 + r2 * 0.111_111_11))));
    e as f32 * std::f32::consts::LN_2 + p
}

/// Fused matrix–vector product `out[o] = W[o]·x (+ bias[o]) (then ReLU)`.
///
/// `w` is row-major `out.len() × x.len()`. With `relu`, negative outputs are
/// clamped to zero in the same pass — an MLP layer in one call, no
/// intermediate buffer.
///
/// # Panics
///
/// Panics if `w`, `x`, `bias` and `out` have inconsistent lengths.
pub fn gemv(out: &mut [f32], w: &[f32], x: &[f32], bias: Option<&[f32]>, relu: bool) {
    let n_in = x.len();
    assert_eq!(w.len(), out.len() * n_in, "gemv weight shape mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), out.len(), "gemv bias length mismatch");
    }
    for (o, slot) in out.iter_mut().enumerate() {
        let mut z = dot(&w[o * n_in..(o + 1) * n_in], x);
        if let Some(b) = bias {
            z += b[o];
        }
        *slot = if relu { z.max(0.0) } else { z };
    }
}

/// Transposed accumulating product `out[i] += Σ_o w[o·n_in + i]·delta[o]` —
/// the `Wᵀ·δ` step of backpropagation. `out` is *accumulated into*; zero it
/// first when a fresh product is wanted.
///
/// # Panics
///
/// Panics if `w.len() != delta.len() * out.len()`.
pub fn gemv_t(out: &mut [f32], w: &[f32], delta: &[f32]) {
    let n_in = out.len();
    assert_eq!(w.len(), delta.len() * n_in, "gemv_t weight shape mismatch");
    for (o, &d) in delta.iter().enumerate() {
        axpy(out, d, &w[o * n_in..(o + 1) * n_in]);
    }
}

/// Rank-1 accumulate `acc[o·n_in + i] += delta[o]·prev[i]` — the weight
/// gradient `δ ⊗ a` of backpropagation.
///
/// # Panics
///
/// Panics if `acc.len() != delta.len() * prev.len()`.
pub fn ger(acc: &mut [f32], delta: &[f32], prev: &[f32]) {
    let n_in = prev.len();
    assert_eq!(acc.len(), delta.len() * n_in, "ger shape mismatch");
    for (o, &d) in delta.iter().enumerate() {
        axpy(&mut acc[o * n_in..(o + 1) * n_in], d, prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, salt: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 * 0.37 + salt).sin()) * 2.0).collect()
    }

    #[test]
    fn dot_matches_scalar_reference_across_lengths() {
        for n in [0, 1, 7, 8, 9, 16, 31, 100] {
            let a = seq(n, 0.1);
            let b = seq(n, 1.7);
            let reference: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
            assert!(
                (dot(&a, &b) as f64 - reference).abs() < 1e-4,
                "len {n}: {} vs {reference}",
                dot(&a, &b)
            );
        }
    }

    #[test]
    fn dot3_matches_scalar_reference() {
        for n in [0, 3, 8, 17, 64] {
            let a = seq(n, 0.3);
            let b = seq(n, 2.1);
            let c = seq(n, 4.4);
            let reference: f64 =
                a.iter().zip(&b).zip(&c).map(|((x, y), z)| *x as f64 * *y as f64 * *z as f64).sum();
            assert!((dot3(&a, &b, &c) as f64 - reference).abs() < 1e-4, "len {n}");
        }
    }

    #[test]
    fn sq_norm_and_clip_match_reference() {
        let mut x = seq(37, 0.9);
        let reference: f64 = x.iter().map(|v| *v as f64 * *v as f64).sum();
        assert!((sq_norm(&x) - reference).abs() < 1e-9);
        let norm = reference.sqrt() as f32;
        let f = clip_l2(&mut x, norm / 2.0);
        assert!((f - 0.5).abs() < 1e-5);
        assert!((sq_norm(&x).sqrt() as f32 - norm / 2.0).abs() < 1e-4);
    }

    #[test]
    fn axpy_and_ema_match_elementwise_reference() {
        let mut y = seq(21, 0.2);
        let x = seq(21, 3.3);
        let expected: Vec<f32> = y.iter().zip(&x).map(|(a, b)| a + 0.7 * b).collect();
        axpy(&mut y, 0.7, &x);
        assert_eq!(y, expected);

        let mut v = seq(21, 0.5);
        // Same `1 - β` rounding as the kernel, so equality is exact.
        let omb = 1.0f32 - 0.9;
        let expected: Vec<f32> = v.iter().zip(&x).map(|(a, b)| 0.9 * a + omb * b).collect();
        ema(&mut v, 0.9, &x);
        assert_eq!(v, expected);
    }

    #[test]
    fn fast_exp_matches_libm_over_training_range() {
        // Sweep the range SGD logits actually cover (|z| far below the ±20
        // per-coordinate clamp) plus the saturation regions.
        let mut worst = 0.0f64;
        for i in -8000..=8000 {
            let x = i as f32 * 0.01; // [-80, 80]
            let fast = f64::from(fast_exp(x));
            let exact = f64::from(x).exp();
            if exact.is_finite() && exact > 1e-30 {
                let rel = ((fast - exact) / exact).abs();
                worst = worst.max(rel);
            }
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
    }

    #[test]
    fn fast_exp_edge_cases_saturate_and_propagate() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert!(fast_exp(1000.0).is_finite(), "saturates instead of inf");
        assert!(fast_exp(1000.0) > 1e37);
        assert!(fast_exp(-1000.0) > 0.0, "saturates instead of zero");
        assert!(fast_exp(-1000.0) < 1e-37);
        assert!(fast_exp(f32::NAN).is_nan());
    }

    #[test]
    fn fast_ln_matches_libm_over_probability_range() {
        // The BCE loss evaluates ln over (ε, 1 + ε]; sweep a wider span.
        let mut worst = 0.0f64;
        for i in 1..=400_000 {
            let x = i as f32 * 2.5e-6; // (0, 1]
            let diff = (f64::from(fast_ln(x)) - f64::from(x).ln()).abs();
            worst = worst.max(diff);
        }
        for i in 1..=10_000 {
            let x = i as f32 * 0.01; // (0, 100]
            let diff = (f64::from(fast_ln(x)) - f64::from(x).ln()).abs();
            worst = worst.max(diff);
        }
        assert!(worst < 2e-6, "worst absolute error {worst}");
    }

    #[test]
    fn fast_ln_non_normal_inputs_take_libm_path() {
        assert_eq!(fast_ln(0.0), f32::NEG_INFINITY);
        assert!(fast_ln(-1.0).is_nan());
        assert!(fast_ln(f32::NAN).is_nan());
        assert_eq!(fast_ln(f32::INFINITY), f32::INFINITY);
        let sub = f32::MIN_POSITIVE / 2.0;
        assert_eq!(fast_ln(sub), sub.ln());
        assert_eq!(fast_ln(1.0), 0.0);
    }

    #[test]
    fn gemv_fuses_bias_and_relu() {
        // 2x3 weights, picked so one output is negative pre-ReLU.
        let w = [1.0, 0.0, 0.0, -1.0, -1.0, -1.0];
        let x = [2.0, 3.0, 4.0];
        let b = [0.5, 0.5];
        let mut out = [0.0f32; 2];
        gemv(&mut out, &w, &x, Some(&b), false);
        assert_eq!(out, [2.5, -8.5]);
        gemv(&mut out, &w, &x, Some(&b), true);
        assert_eq!(out, [2.5, 0.0]);
        gemv(&mut out, &w, &x, None, false);
        assert_eq!(out, [2.0, -9.0]);
    }

    #[test]
    fn gemv_t_and_ger_match_loops() {
        let n_in = 11;
        let n_out = 5;
        let w = seq(n_in * n_out, 1.1);
        let delta = seq(n_out, 2.2);
        let prev = seq(n_in, 3.3);

        let mut out = vec![0.0f32; n_in];
        gemv_t(&mut out, &w, &delta);
        for i in 0..n_in {
            let reference: f32 = (0..n_out).map(|o| w[o * n_in + i] * delta[o]).sum();
            assert!((out[i] - reference).abs() < 1e-5);
        }

        let mut acc = vec![0.0f32; n_in * n_out];
        ger(&mut acc, &delta, &prev);
        for o in 0..n_out {
            for i in 0..n_in {
                assert!((acc[o * n_in + i] - delta[o] * prev[i]).abs() < 1e-6);
            }
        }
    }
}
