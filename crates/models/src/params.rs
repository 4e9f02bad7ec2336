//! Flat parameter-vector helpers: the L2 norm, the sigmoid, uniform
//! initialization and the DP noise sampler.
//!
//! The linear operations — FedAvg aggregation, the attack's momentum
//! (Eq. 4), DP-SGD clipping — are the [`crate::kernel`] functions, called
//! directly over flat `f32` slices, so one property-tested code path serves
//! every model.

use crate::kernel;
use rand::rngs::StdRng;
use rand::Rng;

/// Euclidean norm of `x` (f64 accumulation via [`crate::kernel::sq_norm`]).
#[must_use]
pub fn l2_norm(x: &[f32]) -> f32 {
    kernel::sq_norm(x).sqrt() as f32
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
