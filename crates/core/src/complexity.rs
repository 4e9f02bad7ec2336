//! The temporal complexity model of Table IX.
//!
//! Costs are expressed in abstract time units: `T_M`/`I_M` are the training
//! and inference times of the recommendation model, `T_C`/`I_C` those of the
//! AIA classifier. The worst case for CIA (a Share-less scenario, where the
//! adversary must also train one fictive embedding) is used throughout, as in
//! the paper:
//!
//! | Attack | Temporal complexity |
//! |---|---|
//! | CIA | `O(T_M) + O(I_M · |U| · |V_target|)` |
//! | MIA | `O(T_M) + O(I_M · |U| · D_max)` |
//! | AIA | `O(T_M · (N + M)) + O(T_C) + O(I_C · |U|)` |

/// Parameters of the analytic cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Training time of one recommendation model (`T_M`).
    pub t_model: f64,
    /// Inference time of one recommendation-model scoring (`I_M`).
    pub i_model: f64,
    /// Training time of the AIA classifier (`T_C`), at least `T_M` given its
    /// input size (see §VIII-D).
    pub t_classifier: f64,
    /// Inference time of the AIA classifier (`I_C ≈ I_M`).
    pub i_classifier: f64,
    /// Number of users `|U|`.
    pub users: f64,
    /// Target set size `|V_target|`.
    pub target_size: f64,
    /// Largest user training-set size `D_max`.
    pub d_max: f64,
    /// Fictive member datasets `N` (AIA).
    pub n_member: f64,
    /// Fictive non-member datasets `M` (AIA).
    pub m_nonmember: f64,
}

impl CostModel {
    /// CIA cost: one fictive-embedding training plus `|U| · |V_target|`
    /// model inferences.
    pub fn cia(&self) -> f64 {
        self.t_model + self.i_model * self.users * self.target_size
    }

    /// MIA cost: one fictive-embedding training plus `|U| · D_max` model
    /// inferences (membership must be tested over candidate training sets).
    pub fn mia(&self) -> f64 {
        self.t_model + self.i_model * self.users * self.d_max
    }

    /// AIA cost: `N + M` model trainings, one classifier training and `|U|`
    /// classifier inferences.
    pub fn aia(&self) -> f64 {
        self.t_model * (self.n_member + self.m_nonmember)
            + self.t_classifier
            + self.i_classifier * self.users
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paperish() -> CostModel {
        // A configuration mirroring the paper's qualitative assumptions:
        // I << T (inference is orders of magnitude cheaper than training),
        // T_C >= T_M, I_C ~ I_M, |V_target| <= D_max.
        CostModel {
            t_model: 1000.0,
            i_model: 0.01,
            t_classifier: 2000.0,
            i_classifier: 0.01,
            users: 943.0,
            target_size: 100.0,
            d_max: 300.0,
            n_member: 20.0,
            m_nonmember: 20.0,
        }
    }

    #[test]
    fn cia_is_cheapest_under_paper_assumptions() {
        let m = paperish();
        assert!(m.cia() < m.mia(), "cia {} !< mia {}", m.cia(), m.mia());
        assert!(m.cia() < m.aia(), "cia {} !< aia {}", m.cia(), m.aia());
    }

    #[test]
    fn cia_equals_mia_when_target_matches_dmax() {
        let mut m = paperish();
        m.target_size = m.d_max;
        assert!((m.cia() - m.mia()).abs() < 1e-9);
    }

    #[test]
    fn aia_scales_with_fictive_datasets() {
        let mut m = paperish();
        let base = m.aia();
        m.n_member *= 2.0;
        assert!(m.aia() > base);
    }
}
