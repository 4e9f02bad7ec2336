//! Flat parameter-vector algebra.
//!
//! Every linear operation the system needs — FedAvg aggregation, gossip
//! averaging, the attack's momentum (Eq. 4), DP-SGD clipping and noising,
//! update computation — is expressed over flat `f32` slices, so one
//! property-tested code path serves every model.

use crate::kernel;
use rand::rngs::StdRng;
use rand::Rng;

/// `y ← y + a · x` (BLAS `axpy`), backed by [`crate::kernel::axpy`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    kernel::axpy(y, a, x);
}

/// `y ← a · y`.
pub fn scale(y: &mut [f32], a: f32) {
    kernel::scale_in_place(y, a);
}

/// Exponential moving average, the attack's Eq. 4:
/// `v ← β·v + (1−β)·θ`, backed by [`crate::kernel::ema`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn ema(v: &mut [f32], beta: f32, theta: &[f32]) {
    kernel::ema(v, beta, theta);
}

/// Euclidean norm of `x` (f64 accumulation via [`crate::kernel::sq_norm`]).
#[must_use]
pub fn l2_norm(x: &[f32]) -> f32 {
    kernel::sq_norm(x).sqrt() as f32
}

/// Scales `x` in place so that its L2 norm is at most `c` (DP-SGD clipping).
/// Returns the factor applied (1.0 when no clipping was needed).
///
/// # Panics
///
/// Panics if `c` is not positive.
pub fn clip_l2(x: &mut [f32], c: f32) -> f32 {
    kernel::clip_l2(x, c)
}

/// `out ← mean of rows`, weighted by `weights` (which are normalized
/// internally). Used by FedAvg and gossip aggregation.
///
/// # Panics
///
/// Panics if `rows` is empty, lengths mismatch, or all weights are zero.
pub fn weighted_mean(out: &mut [f32], rows: &[&[f32]], weights: &[f32]) {
    assert!(!rows.is_empty(), "weighted_mean needs at least one row");
    assert_eq!(rows.len(), weights.len(), "one weight per row");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    out.fill(0.0);
    for (row, &w) in rows.iter().zip(weights) {
        axpy(out, w / total, row);
    }
}

/// Batched Box–Muller noise (the DP write path) and its scalar reference,
/// shared with the image generator; see [`cia_data::add_gaussian_noise`].
pub use cia_data::{add_gaussian_noise, gaussian};

/// Uniform initialization in `[-scale, scale]`, the classic embedding init.
pub fn init_uniform(out: &mut [f32], scale: f32, rng: &mut StdRng) {
    for v in out.iter_mut() {
        *v = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
    }
}

/// Numerically stable logistic sigmoid, backed by [`crate::kernel::fast_exp`].
///
/// `fast_exp` saturates at `2^±126` instead of overflowing, so the single
/// expression is stable over the whole real line — no sign branch needed —
/// and costs a fraction of a libm `expf` (this sits inside every SGD step).
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + kernel::fast_exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn axpy_adds_scaled() {
        let mut y = vec![1.0, 2.0];
        axpy(&mut y, 2.0, &[10.0, 20.0]);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_length_mismatch_panics() {
        axpy(&mut [0.0], 1.0, &[1.0, 2.0]);
    }

    #[test]
    fn ema_interpolates() {
        let mut v = vec![0.0, 1.0];
        ema(&mut v, 0.9, &[1.0, 0.0]);
        assert!((v[0] - 0.1).abs() < 1e-6);
        assert!((v[1] - 0.9).abs() < 1e-6);
        // beta = 0 replaces entirely.
        ema(&mut v, 0.0, &[5.0, 5.0]);
        assert_eq!(v, vec![5.0, 5.0]);
    }

    #[test]
    fn clip_l2_caps_norm() {
        let mut x = vec![3.0, 4.0]; // norm 5
        let f = clip_l2(&mut x, 2.5);
        assert!((f - 0.5).abs() < 1e-6);
        assert!((l2_norm(&x) - 2.5).abs() < 1e-5);
        // Already small: untouched.
        let mut y = vec![0.1, 0.1];
        assert_eq!(clip_l2(&mut y, 10.0), 1.0);
        assert_eq!(y, vec![0.1, 0.1]);
    }

    #[test]
    fn weighted_mean_normalizes() {
        let mut out = vec![0.0; 2];
        weighted_mean(&mut out, &[&[2.0, 0.0], &[0.0, 4.0]], &[1.0, 3.0]);
        assert!((out[0] - 0.5).abs() < 1e-6);
        assert!((out[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for _ in 0..n {
            let g = gaussian(&mut rng) as f64;
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn noise_changes_values_with_expected_magnitude() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = vec![0.0f32; 10_000];
        add_gaussian_noise(&mut x, 0.5, &mut rng);
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        let emp_std = (x.iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / 10_000.0).sqrt();
        assert!((emp_std - 0.5).abs() < 0.02, "std {emp_std}");
        // Zero std is a no-op.
        let mut y = vec![1.0f32; 4];
        add_gaussian_noise(&mut y, 0.0, &mut rng);
        assert_eq!(y, vec![1.0; 4]);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
        for x in [-3.0f32, -0.5, 0.7, 4.2] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn init_uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut x = vec![0.0f32; 1000];
        init_uniform(&mut x, 0.1, &mut rng);
        assert!(x.iter().all(|v| v.abs() <= 0.1));
        assert!(x.iter().any(|v| v.abs() > 0.01));
    }
}
