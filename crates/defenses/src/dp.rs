//! Local DP-SGD applied to shared model updates (§III-E).
//!
//! As in the paper, noise is added at user level (local DP): before a
//! participant's update leaves the device it is clipped to L2 norm `C` and
//! perturbed with Gaussian noise `N(0, (ι·C)² I)`.

use crate::RdpAccountant;
use cia_models::params::{add_gaussian_noise, clip_l2};
use rand::rngs::StdRng;

pub use cia_models::UpdateTransform;

/// DP-SGD parameters. The paper's Figure 5 uses `clip = 2`, `δ = 1e-6` and
/// sweeps ε over `{∞, 1000, 100, 10, 1}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpConfig {
    /// L2 clipping threshold `C`.
    pub clip: f32,
    /// Noise multiplier ι (noise std = ι·C).
    pub noise_multiplier: f32,
}

/// The Gaussian mechanism over clipped updates.
///
/// ```
/// use cia_defenses::{DpConfig, DpMechanism, UpdateTransform};
/// use rand::SeedableRng;
///
/// let dp = DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 1.0 });
/// let mut update = vec![3.0f32, 4.0];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// dp.transform(&mut update, &mut rng);
/// // The deterministic part of the transform bounds the norm at clip;
/// // noise is then added on top.
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpMechanism {
    cfg: DpConfig,
}

impl DpMechanism {
    /// Creates the mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `clip <= 0` or `noise_multiplier < 0`.
    pub fn new(cfg: DpConfig) -> Self {
        assert!(cfg.clip > 0.0, "clipping threshold must be positive");
        assert!(cfg.noise_multiplier >= 0.0, "noise multiplier must be non-negative");
        DpMechanism { cfg }
    }

    /// Builds a mechanism calibrated so that `rounds` releases at
    /// `sampling_rate` satisfy (`target_epsilon`, `delta`)-DP.
    pub fn with_target_epsilon(
        target_epsilon: f64,
        delta: f64,
        rounds: u64,
        sampling_rate: f64,
        clip: f32,
    ) -> Self {
        let sigma = RdpAccountant::calibrate_noise(target_epsilon, delta, rounds, sampling_rate);
        // Round the multiplier up slightly so the f64→f32 conversion cannot
        // land below the calibrated value and overshoot the budget.
        DpMechanism::new(DpConfig { clip, noise_multiplier: (sigma * 1.0005) as f32 })
    }

    /// The mechanism's configuration.
    pub fn config(&self) -> DpConfig {
        self.cfg
    }

    /// The ε spent by `rounds` releases of this mechanism at `delta`.
    pub fn epsilon(&self, rounds: u64, sampling_rate: f64, delta: f64) -> f64 {
        if self.cfg.noise_multiplier == 0.0 {
            return f64::INFINITY;
        }
        RdpAccountant::new(self.cfg.noise_multiplier as f64, rounds, sampling_rate).epsilon(delta)
    }
}

impl UpdateTransform for DpMechanism {
    fn transform(&self, update: &mut [f32], rng: &mut StdRng) {
        clip_l2(update, self.cfg.clip);
        add_gaussian_noise(update, self.cfg.noise_multiplier * self.cfg.clip, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_models::params::l2_norm;
    use rand::SeedableRng;

    #[test]
    fn clips_before_noising() {
        // With zero noise, the transform is pure clipping.
        let dp = DpMechanism::new(DpConfig { clip: 1.0, noise_multiplier: 0.0 });
        let mut u = vec![3.0f32, 4.0];
        let mut rng = StdRng::seed_from_u64(1);
        dp.transform(&mut u, &mut rng);
        assert!((l2_norm(&u) - 1.0).abs() < 1e-5);
        // Direction preserved.
        assert!((u[0] / u[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn noise_has_configured_magnitude() {
        let dp = DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 1.5 });
        let mut u = vec![0.0f32; 20_000];
        let mut rng = StdRng::seed_from_u64(2);
        dp.transform(&mut u, &mut rng);
        let emp_std = (u.iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / 20_000.0).sqrt();
        assert!((emp_std - 3.0).abs() < 0.1, "std {emp_std}, expected 3.0");
    }

    #[test]
    fn epsilon_matches_accountant() {
        let dp = DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 2.0 });
        let direct = RdpAccountant::new(2.0, 40, 1.0).epsilon(1e-6);
        assert!((dp.epsilon(40, 1.0, 1e-6) - direct).abs() < 1e-9);
        let noiseless = DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 0.0 });
        assert!(noiseless.epsilon(40, 1.0, 1e-6).is_infinite());
    }

    #[test]
    fn target_epsilon_constructor_meets_budget() {
        let dp = DpMechanism::with_target_epsilon(10.0, 1e-6, 30, 1.0, 2.0);
        let eps = dp.epsilon(30, 1.0, 1e-6);
        assert!(eps <= 10.0 && eps > 8.0, "eps {eps}");
    }

    #[test]
    #[should_panic(expected = "clipping threshold")]
    fn rejects_non_positive_clip() {
        let _ = DpMechanism::new(DpConfig { clip: 0.0, noise_multiplier: 1.0 });
    }
}
