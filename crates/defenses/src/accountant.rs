//! Rényi differential privacy (RDP) accounting for the Gaussian mechanism.
//!
//! The paper applies *local* DP-SGD: each participant's shared update is a
//! Gaussian mechanism with sensitivity `C` (the clipping threshold) and noise
//! standard deviation `ι·C`, composed over the training rounds. The RDP of
//! one such release at order `α` is `α / (2ι²)`; RDP composes additively and
//! converts to `(ε, δ)`-DP via `ε = min_α [ RDP(α) + ln(1/δ) / (α − 1) ]`.
//!
//! When participation is subsampled (rate `q < 1`) we use the classic
//! moments-accountant approximation `RDP(α) ≈ q²·α / ι²` (Abadi et al.),
//! valid for small `q` and `ι ≥ 1`; the paper's FL setting contacts all users
//! per round, so the exact `q = 1` path is the one exercised by the
//! experiments.

/// Accounts the privacy budget of `rounds` composed (subsampled) Gaussian
/// mechanism releases with a given noise multiplier.
///
/// ```
/// use cia_defenses::RdpAccountant;
/// let acc = RdpAccountant::new(2.0, 100, 1.0);
/// let eps = acc.epsilon(1e-6);
/// assert!(eps > 0.0 && eps.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdpAccountant {
    noise_multiplier: f64,
    rounds: u64,
    sampling_rate: f64,
}

impl RdpAccountant {
    /// Creates an accountant.
    ///
    /// # Panics
    ///
    /// Panics if `noise_multiplier <= 0`, `rounds == 0`, or
    /// `sampling_rate ∉ (0, 1]`.
    pub fn new(noise_multiplier: f64, rounds: u64, sampling_rate: f64) -> Self {
        assert!(noise_multiplier > 0.0, "noise multiplier must be positive");
        assert!(rounds > 0, "must account at least one round");
        assert!(sampling_rate > 0.0 && sampling_rate <= 1.0, "sampling rate must be in (0, 1]");
        RdpAccountant { noise_multiplier, rounds, sampling_rate }
    }

    /// The noise multiplier ι.
    pub fn noise_multiplier(&self) -> f64 {
        self.noise_multiplier
    }

    /// RDP at order `α > 1` of the composed mechanism.
    pub fn rdp(&self, alpha: f64) -> f64 {
        assert!(alpha > 1.0, "RDP orders must exceed 1");
        let s2 = self.noise_multiplier * self.noise_multiplier;
        let per_round = if self.sampling_rate >= 1.0 {
            alpha / (2.0 * s2)
        } else {
            // Moments-accountant approximation for the subsampled Gaussian.
            self.sampling_rate * self.sampling_rate * alpha / s2
        };
        per_round * self.rounds as f64
    }

    /// Converts to `(ε, δ)`-DP by minimizing over a grid of RDP orders.
    ///
    /// # Panics
    ///
    /// Panics if `delta ∉ (0, 1)`.
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let log_inv_delta = (1.0 / delta).ln();
        let mut best = f64::INFINITY;
        let mut alpha = 1.05f64;
        while alpha <= 4096.0 {
            let eps = self.rdp(alpha) + log_inv_delta / (alpha - 1.0);
            if eps < best {
                best = eps;
            }
            alpha *= 1.05;
        }
        best
    }

    /// Finds the noise multiplier achieving `target_epsilon` at `delta` for
    /// the given rounds and sampling rate (binary search; ε is monotone
    /// decreasing in ι).
    ///
    /// # Errors
    ///
    /// Refuses a `target_epsilon` that is not positive, and one no noise
    /// multiplier below 10⁹ reaches.
    ///
    /// # Panics
    ///
    /// Panics if `delta ∉ (0, 1)`.
    pub fn calibrate_noise(
        target_epsilon: f64,
        delta: f64,
        rounds: u64,
        sampling_rate: f64,
    ) -> Result<f64, String> {
        if target_epsilon.is_nan() || target_epsilon <= 0.0 {
            return Err(format!("target epsilon {target_epsilon} must be positive"));
        }
        let eps_of = |sigma: f64| RdpAccountant::new(sigma, rounds, sampling_rate).epsilon(delta);
        let mut lo = 1e-3f64;
        let mut hi = 1e-3f64;
        // Grow hi until the budget is met.
        while eps_of(hi) > target_epsilon {
            hi *= 2.0;
            if hi >= 1e9 {
                return Err(format!("cannot reach target epsilon {target_epsilon}"));
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if eps_of(mid) > target_epsilon {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_close_to_gaussian_closed_form() {
        // For q = 1: ε* = T/(2ι²) + sqrt(2 T ln(1/δ))/ι at the optimal α.
        let (sigma, rounds, delta) = (2.0f64, 50u64, 1e-6f64);
        let acc = RdpAccountant::new(sigma, rounds, 1.0);
        let closed = rounds as f64 / (2.0 * sigma * sigma)
            + (2.0 * rounds as f64 * (1.0 / delta).ln()).sqrt() / sigma;
        let got = acc.epsilon(delta);
        assert!((got - closed).abs() / closed < 0.02, "grid {got} vs closed-form {closed}");
    }

    #[test]
    fn more_noise_means_less_epsilon() {
        let e1 = RdpAccountant::new(1.0, 100, 1.0).epsilon(1e-6);
        let e2 = RdpAccountant::new(2.0, 100, 1.0).epsilon(1e-6);
        let e4 = RdpAccountant::new(4.0, 100, 1.0).epsilon(1e-6);
        assert!(e1 > e2 && e2 > e4, "{e1} > {e2} > {e4}");
    }

    #[test]
    fn more_rounds_means_more_epsilon() {
        let e10 = RdpAccountant::new(2.0, 10, 1.0).epsilon(1e-6);
        let e100 = RdpAccountant::new(2.0, 100, 1.0).epsilon(1e-6);
        assert!(e100 > e10);
    }

    #[test]
    fn subsampling_reduces_epsilon() {
        let full = RdpAccountant::new(2.0, 100, 1.0).epsilon(1e-6);
        let sub = RdpAccountant::new(2.0, 100, 0.1).epsilon(1e-6);
        assert!(sub < full);
    }

    #[test]
    fn calibration_roundtrips() {
        for &target in &[1.0f64, 10.0, 100.0, 1000.0] {
            let sigma = RdpAccountant::calibrate_noise(target, 1e-6, 60, 1.0).unwrap();
            let got = RdpAccountant::new(sigma, 60, 1.0).epsilon(1e-6);
            assert!(
                got <= target && got > target * 0.95,
                "target {target}: sigma {sigma} gives {got}"
            );
        }
    }

    #[test]
    fn calibrated_noise_decreases_with_budget() {
        let tight = RdpAccountant::calibrate_noise(1.0, 1e-6, 60, 1.0).unwrap();
        let loose = RdpAccountant::calibrate_noise(100.0, 1e-6, 60, 1.0).unwrap();
        assert!(tight > loose, "tight {tight} !> loose {loose}");
    }

    #[test]
    fn unreachable_or_non_positive_budgets_are_refused() {
        let calibrate = |eps| RdpAccountant::calibrate_noise(eps, 1e-6, 30, 1.0);
        assert!(calibrate(1e-4).unwrap_err().contains("cannot reach target epsilon"));
        for eps in [0.0, -1.0, f64::NAN] {
            assert!(calibrate(eps).unwrap_err().contains("must be positive"), "{eps}");
        }
    }

    #[test]
    #[should_panic(expected = "noise multiplier must be positive")]
    fn rejects_zero_noise() {
        let _ = RdpAccountant::new(0.0, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn rejects_bad_sampling_rate() {
        let _ = RdpAccountant::new(1.0, 10, 1.5);
    }
}
