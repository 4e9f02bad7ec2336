//! Box–Muller Gaussian noise, scalar and batched.
//!
//! [`gaussian`] is the scalar reference: one draw from `sqrt(-2 ln u1) ·
//! cos(2π u2)` through the platform libm. [`add_gaussian_noise`] computes the
//! same stream, bit for bit, in chunks: it draws the uniforms in the scalar
//! order into a stack buffer, then runs one branch-free `ln` pass, one `cos`
//! pass and one combine pass, which the compiler vectorises.
//!
//! The two transcendental functions are ports of glibc 2.36's `logf`
//! (`e_logf.c`, a 16-entry table plus a degree-3 polynomial in f64) and
//! `cosf` (`s_cosf.c`: `reduce_fast` plus the `sinf_poly` polynomials),
//! restricted to the sampler's domains. The constants are glibc's
//! `__logf_data` and `__sincosf_table` copied as raw bits. The uniforms are
//! `k / 2^24`, so each port sees at most 2^24 distinct inputs; the tests
//! compare all of them with `f32::ln` / `f32::cos`. DP noise and the MNIST
//! pixels therefore no longer depend on the host's libm.

use rand::rngs::StdRng;
use rand::Rng;
use std::f32::consts::PI;

/// One draw from the standard normal distribution (Box–Muller on top of
/// `rand`, so no distributions crate is needed).
///
/// This is the scalar reference the batch sampler is tested and benchmarked
/// against; it goes through the platform libm's `logf` / `cosf`.
pub fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen::<f32>().max(f32::MIN_POSITIVE);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Uniform pairs drawn per pass: two 1 KiB stack buffers.
const CHUNK: usize = 256;

/// Adds i.i.d. Gaussian noise of standard deviation `std` to `x`.
///
/// Bit for bit the same as `for v in x { *v += gaussian(rng) * std }`, and
/// leaves `rng` in the same state, but evaluates `ln` and `cos` with the
/// vectorised ports below instead of one libm call each per coordinate.
/// With `std == 0.0` it returns at once and draws nothing from `rng`.
pub fn add_gaussian_noise(x: &mut [f32], std: f32, rng: &mut StdRng) {
    if std == 0.0 {
        return;
    }
    let mut u1 = [0.0f32; CHUNK];
    let mut theta = [0.0f32; CHUNK];
    for xs in x.chunks_mut(CHUNK) {
        let (u1, theta) = (&mut u1[..xs.len()], &mut theta[..xs.len()]);
        for (a, t) in u1.iter_mut().zip(theta.iter_mut()) {
            *a = rng.gen::<f32>().max(f32::MIN_POSITIVE);
            *t = 2.0 * PI * rng.gen::<f32>();
        }
        for a in u1.iter_mut() {
            *a = ln(*a);
        }
        for t in theta.iter_mut() {
            *t = cos(*t);
        }
        for ((v, &l), &c) in xs.iter_mut().zip(u1.iter()).zip(theta.iter()) {
            *v += (-2.0 * l).sqrt() * c * std;
        }
    }
}

/// `__logf_data.tab`: `(invc, logc)` per subinterval of `[OFF, 2·OFF)`.
const LOGF_TAB: [(f64, f64); 16] = [
    (f64::from_bits(0x3ff6_61ec_79f8_f3be), f64::from_bits(0xbfd5_7bf7_808c_aade)),
    (f64::from_bits(0x3ff5_71ed_4aaf_883d), f64::from_bits(0xbfd2_bef0_a7c0_6ddb)),
    (f64::from_bits(0x3ff4_9539_f0f0_10b0), f64::from_bits(0xbfd0_1eae_7f51_3a67)),
    (f64::from_bits(0x3ff3_c995_b0b8_0385), f64::from_bits(0xbfcb_31d8_a682_24e9)),
    (f64::from_bits(0x3ff3_0d19_0c88_64a5), f64::from_bits(0xbfc6_574f_0ac0_7758)),
    (f64::from_bits(0x3ff2_5e22_7b0b_8ea0), f64::from_bits(0xbfc1_aa2b_c79c_8100)),
    (f64::from_bits(0x3ff1_bb4a_4a1a_343f), f64::from_bits(0xbfba_4e76_ce8c_0e5e)),
    (f64::from_bits(0x3ff1_2358_f08a_e5ba), f64::from_bits(0xbfb1_973c_5a61_1ccc)),
    (f64::from_bits(0x3ff0_953f_4199_00a7), f64::from_bits(0xbfa2_52f4_38e1_0c1e)),
    (f64::from_bits(0x3ff0_0000_0000_0000), f64::from_bits(0x0000_0000_0000_0000)),
    (f64::from_bits(0x3fee_608c_fd9a_47ac), f64::from_bits(0x3faa_a5aa_5df2_5984)),
    (f64::from_bits(0x3fec_a4b3_1f02_6aa0), f64::from_bits(0x3fbc_5e53_aa36_2eb4)),
    (f64::from_bits(0x3feb_2036_576a_fce6), f64::from_bits(0x3fc5_26e5_7720_db08)),
    (f64::from_bits(0x3fe9_c2d1_63a1_aa2d), f64::from_bits(0x3fcb_c286_0d22_4770)),
    (f64::from_bits(0x3fe8_86e6_0378_41ed), f64::from_bits(0x3fd1_058b_c8a0_7ee1)),
    (f64::from_bits(0x3fe7_67dc_f553_4862), f64::from_bits(0x3fd4_0430_57b6_ee09)),
];
/// `__logf_data.ln2`.
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// `__logf_data.poly`.
const LOGF_A: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];
/// Bits of the lower table bound `OFF ≈ 0.7`.
const LOGF_OFF: u32 = 0x3f33_0000;

/// glibc's `logf` for normal positive `x` (the sampler passes `u1 ≥
/// f32::MIN_POSITIVE`, `u1 < 1`): `x = 2^k z`, then `log1p(z/c - 1) + log c +
/// k ln 2` with `c` the centre of `z`'s table subinterval.
fn ln(x: f32) -> f32 {
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(LOGF_OFF);
    let (invc, logc) = LOGF_TAB[(tmp >> 19) as usize % 16];
    let k = tmp.cast_signed() >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let r = z * invc - 1.0;
    let y0 = logc + f64::from(k) * LN2;
    let r2 = r * r;
    let y = LOGF_A[1] * r + LOGF_A[2];
    let y = LOGF_A[0] * r2 + y;
    (y * r2 + (y0 + r)) as f32
}

/// `__sincosf_table[0].hpi_inv`: `2/π · 2^24`.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
/// `__sincosf_table[0].hpi`: `π/2`.
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// `__sincosf_table[0]` cosine polynomial `c0..c4`.
const COS_C: [f64; 5] = [
    f64::from_bits(0x3ff0_0000_0000_0000),
    f64::from_bits(0xbfdf_ffff_fd0c_621c),
    f64::from_bits(0x3fa5_5553_e106_8f19),
    f64::from_bits(0xbf56_c087_e89a_359d),
    f64::from_bits(0x3ef9_9343_027b_f8c3),
];
/// `__sincosf_table[0]` sine polynomial `s1..s3`.
const SIN_S: [f64; 3] = [
    f64::from_bits(0xbfc5_5554_5995_a603),
    f64::from_bits(0x3f81_1076_0523_0bc4),
    f64::from_bits(0xbf29_94eb_3774_cf24),
];

/// glibc's `cosf` for `y` in `[0, 2π)`, branch-free.
///
/// `reduce_fast` writes `y = n·π/2 + x` with `n = ((int32_t) (y·hpi_inv) +
/// 2^23) >> 24`, which is in `0..=4` here; the same quantity is computed in
/// f64. glibc then evaluates `sinf_poly` with the sign and table chosen by
/// `n`; its second table only negates the cosine coefficients and the sine
/// polynomial is odd, so every quadrant is `±cos_poly(x)` or `±sin_poly(x)`,
/// negation being exact. Below `y < 0.75` glibc skips the reduction, which is
/// the `n == 0` case unchanged; below `2^-12` it returns 1, which the cosine
/// polynomial also rounds to.
fn cos(y: f32) -> f32 {
    let x = f64::from(y);
    let n = (((x * HPI_INV).trunc() + 8_388_608.0) * (1.0 / 16_777_216.0)).floor();
    let x = x - n * HPI;
    let x2 = x * x;
    let x4 = x2 * x2;
    let c2 = COS_C[3] + x2 * COS_C[4];
    let c1 = COS_C[0] + x2 * COS_C[1];
    let c = c1 + x4 * COS_C[2];
    let c = c + x4 * x2 * c2;
    let x3 = x * x2;
    let s1 = SIN_S[1] + x2 * SIN_S[2];
    let s = x + x3 * SIN_S[0];
    let s = s + x3 * x2 * s1;
    let v = if n == 1.0 || n == 3.0 { s } else { c };
    let v = if n == 1.0 || n == 2.0 { -v } else { v };
    v as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every uniform the vendored `rand` can return: `k / 2^24`.
    fn uniforms() -> impl Iterator<Item = f32> {
        (0..1u32 << 24).map(|k| k as f32 * (1.0 / (1u32 << 24) as f32))
    }

    /// Asserts `port` equals `libm` bit for bit on every input.
    fn assert_bit_exact(
        name: &str,
        inputs: impl Iterator<Item = f32>,
        port: fn(f32) -> f32,
        libm: fn(f32) -> f32,
    ) {
        let mut mismatches = 0u32;
        let mut first = None;
        for x in inputs {
            let (got, want) = (port(x), libm(x));
            if got.to_bits() != want.to_bits() {
                mismatches += 1;
                first.get_or_insert((x, got, want));
            }
        }
        assert_eq!(mismatches, 0, "{name}: first mismatch (x, port, libm) = {first:?}");
    }

    #[test]
    fn ln_matches_libm_on_every_sampler_input() {
        assert_bit_exact("ln", uniforms().map(|u| u.max(f32::MIN_POSITIVE)), ln, f32::ln);
    }

    #[test]
    fn cos_matches_libm_on_every_sampler_input() {
        assert_bit_exact("cos", uniforms().map(|u| 2.0 * PI * u), cos, f32::cos);
    }

    #[test]
    fn zero_std_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let fresh = rng.clone();
        let mut x = vec![1.0f32; 300];
        add_gaussian_noise(&mut x, 0.0, &mut rng);
        assert_eq!(rng, fresh);
        assert_eq!(x, vec![1.0; 300]);
    }

    proptest::proptest! {
        #[test]
        fn batch_noise_equals_the_scalar_loop(
            seed in 0u64..(1 << 60),
            len in 0usize..=3 * CHUNK + 7,
            std in 0.01f32..4.0,
        ) {
            let mut x: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 3.0).collect();
            let mut want = x.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scalar_rng = rng.clone();
            add_gaussian_noise(&mut x, std, &mut rng);
            for v in &mut want {
                *v += gaussian(&mut scalar_rng) * std;
            }
            let diff = x.iter().zip(&want).position(|(a, b)| a.to_bits() != b.to_bits());
            proptest::prop_assert!(diff.is_none(), "coordinate {diff:?} of {len} differs");
            proptest::prop_assert_eq!(rng, scalar_rng);
        }
    }
}
