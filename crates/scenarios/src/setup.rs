//! Shared dataset/ground-truth setup for one (preset, scale, seed) — the
//! common substrate every scenario run (and every `cia-experiments` table)
//! builds on.

use crate::spec::ScaleParams;
use cia_core::Recorder;
use cia_data::presets::{Preset, Scale};
use cia_data::{Dataset, GroundTruth, LeaveOneOut, UserId};

/// Dataset, split, ground truth and scale parameters for one scenario.
pub struct RecsysSetup {
    /// The generated dataset.
    pub data: Dataset,
    /// The train/test split.
    pub split: LeaveOneOut,
    /// Community size used for ground truth.
    pub k: usize,
    /// Ground-truth communities for per-user targets.
    pub truth: GroundTruth,
    /// Scale parameters in effect.
    pub params: ScaleParams,
}

impl RecsysSetup {
    /// Truth table aligned with per-user targets.
    pub fn truth_table(&self) -> Vec<Vec<UserId>> {
        (0..self.data.num_users())
            .map(|u| self.truth.community_of(UserId::from_index(u)).to_vec())
            .collect()
    }

    /// Owner table (each per-user target excludes its donor).
    pub fn owner_table(&self) -> Vec<Option<UserId>> {
        (0..self.data.num_users()).map(|u| Some(UserId::from_index(u))).collect()
    }
}

/// Checks that `params` fit inside the shape the synthetic generator will
/// produce — the split needs `eval_negatives` items outside each user's
/// interactions and `poi_holdout + 1` spare interactions per user to hold
/// out, so parameters beyond the generated catalog can only fail deep inside
/// the splitter. Surfacing the mismatch here turns that panic into a
/// caller-printable error.
pub fn validate_scale_params(
    params: &ScaleParams,
    num_users: usize,
    num_items: usize,
    per_user: usize,
) -> Result<(), String> {
    if num_users < 3 {
        return Err(format!("generator produced {num_users} users; need at least 3"));
    }
    if params.eval_negatives + per_user >= num_items {
        return Err(format!(
            "eval_negatives = {} exceeds the generator's supported range: the catalog has \
             {num_items} items and up to {per_user} per-user interactions, leaving too few \
             negatives to sample",
            params.eval_negatives
        ));
    }
    if params.poi_holdout + 1 > per_user {
        return Err(format!(
            "poi_holdout = {} exceeds the generator's supported range: only {per_user} \
             interactions per user are generated and at least one must stay in train",
            params.poi_holdout
        ));
    }
    Ok(())
}

/// Builds the dataset, split and ground truth for a preset at a scale,
/// reporting unsatisfiable scale parameters as an error instead of
/// panicking inside the splitter.
///
/// # Errors
///
/// Returns a description of the first scale-parameter/generator mismatch,
/// or of a community size `K` outside `[1, n − 2]` for the `n` users.
pub fn try_build_setup(
    preset: Preset,
    scale: Scale,
    k_override: Option<usize>,
    seed: u64,
) -> Result<RecsysSetup, String> {
    try_build_setup_traced(preset, scale, k_override, seed, &Recorder::new())
}

/// [`try_build_setup`], timing its stages as the spans [`SETUP_STAGES`]
/// names (`generate`, `split`, `ground_truth`) on `rec`.
pub(crate) fn try_build_setup_traced(
    preset: Preset,
    scale: Scale,
    k_override: Option<usize>,
    seed: u64,
    rec: &Recorder,
) -> Result<RecsysSetup, String> {
    let params = ScaleParams::of(scale);
    let (users, items, per_user) = preset.dims(scale);
    validate_scale_params(&params, users, items as usize, per_user)?;
    let k = k_override.unwrap_or(params.k);
    check_k(k, users)?;
    let data = {
        let _generate = rec.span("generate");
        preset.generate(scale, seed)
    };
    let holdout = if preset.has_sequences() { params.poi_holdout } else { 1 };
    let split = {
        let _split = rec.span("split");
        LeaveOneOut::with_holdout(&data, holdout, params.eval_negatives, seed ^ 0x5EED)
            .map_err(|e| format!("{} at scale {scale} cannot be split: {e}", preset.name()))?
    };
    let truth = {
        let _truth = rec.span("ground_truth");
        GroundTruth::from_train_sets(split.train_sets(), k)
    };
    Ok(RecsysSetup { data, split, k, truth, params })
}

/// Refuses a community size `K` outside `[1, n − 2]` for `n` users: each
/// target's K nearest users are ranked among the other `n − 1`, minus one
/// adversary.
pub(crate) fn check_k(k: usize, n: usize) -> Result<(), String> {
    let max_k = n.saturating_sub(2);
    if (1..=max_k).contains(&k) {
        return Ok(());
    }
    Err(format!("k {k} must lie in [1, {max_k}] for a population of {n} users"))
}

/// The setup stages a scenario run times, in order: the three of
/// [`try_build_setup`], then the runner's client build (`clients`).
pub(crate) const SETUP_STAGES: [&str; 4] = ["generate", "split", "ground_truth", "clients"];

/// Builds the dataset, split and ground truth for a preset at a scale.
///
/// # Panics
///
/// Panics if the scale parameters don't fit the generated dataset — the
/// built-in presets always do — or `k_override` is out of range; use
/// [`try_build_setup`] for inputs that aren't known-good.
pub fn build_setup(
    preset: Preset,
    scale: Scale,
    k_override: Option<usize>,
    seed: u64,
) -> RecsysSetup {
    try_build_setup(preset, scale, k_override, seed).expect("presets generate splittable data")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_tables_are_aligned() {
        let s = build_setup(Preset::MovieLens, Scale::Smoke, None, 1);
        assert_eq!(s.truth_table().len(), s.data.num_users());
        assert_eq!(s.owner_table().len(), s.data.num_users());
        assert_eq!(s.k, 5);
    }

    #[test]
    fn every_builtin_shape_passes_validation() {
        for preset in Preset::ALL {
            for scale in [Scale::Smoke, Scale::Small, Scale::Paper] {
                let params = ScaleParams::of(scale);
                let (users, items, per_user) = preset.dims(scale);
                validate_scale_params(&params, users, items as usize, per_user)
                    .unwrap_or_else(|e| panic!("{} at {scale}: {e}", preset.name()));
            }
        }
    }

    #[test]
    fn out_of_range_params_are_reported_not_panicked() {
        let mut params = ScaleParams::of(Scale::Smoke);
        params.eval_negatives = 10_000;
        let err = validate_scale_params(&params, 48, 160, 12).unwrap_err();
        assert!(err.contains("eval_negatives"), "unhelpful error: {err}");
        assert!(err.contains("supported range"), "unhelpful error: {err}");

        let mut params = ScaleParams::of(Scale::Smoke);
        params.poi_holdout = 12;
        let err = validate_scale_params(&params, 48, 160, 12).unwrap_err();
        assert!(err.contains("poi_holdout"), "unhelpful error: {err}");

        let params = ScaleParams::of(Scale::Smoke);
        assert!(validate_scale_params(&params, 2, 160, 12).is_err());
    }
}
