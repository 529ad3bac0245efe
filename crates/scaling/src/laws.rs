//! Power-law learning curves and model-size curves (paper §3, after
//! Hestness et al. 2017).

/// Generalization-error learning curve `ε(m) = α·m^βg` (paper Eq. 1).
///
/// `m` is the number of training samples; `βg ∈ [−0.5, 0)` — closer to −0.5
/// means the model learns more from each additional sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LearningCurve {
    /// Scale constant `α` (input-space / architecture dependent).
    pub alpha: f64,
    /// Power-law exponent `βg` (negative).
    pub beta_g: f64,
}

impl LearningCurve {
    /// Create a curve; `beta_g` must be in `[-0.5, 0)`.
    pub fn new(alpha: f64, beta_g: f64) -> LearningCurve {
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(
            (-0.5..0.0).contains(&beta_g),
            "beta_g must be in [-0.5, 0), got {beta_g}"
        );
        LearningCurve { alpha, beta_g }
    }

    /// Predicted generalization error after training on `m` samples.
    pub fn error_at(&self, m: f64) -> f64 {
        self.alpha * m.powf(self.beta_g)
    }

    /// Samples required to reach `error` (inverse of [`Self::error_at`]).
    pub fn data_for_error(&self, error: f64) -> f64 {
        assert!(error > 0.0, "target error must be positive");
        (error / self.alpha).powf(1.0 / self.beta_g)
    }

    /// Multiplicative growth in training data needed to move the error from
    /// `current` to `target`, anchored at the *observed* current error (the
    /// paper's Table 1 "Projected Scale / Data" column).
    pub fn data_scale(&self, current: f64, target: f64) -> f64 {
        assert!(target < current, "target error must improve on current");
        (target / current).powf(1.0 / self.beta_g)
    }
}

/// Model-capacity curve `p(m) = σ·m^βp` (paper Eq. 2): parameters required
/// to fit a dataset of `m` samples. `βp ∈ [0.5, 1)` — sublinear, else one
/// could simply memorize the dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelSizeCurve {
    /// Scale constant `σ`.
    pub sigma: f64,
    /// Power-law exponent `βp`.
    pub beta_p: f64,
}

impl ModelSizeCurve {
    /// Create a curve; `beta_p` must be in `[0.5, 1)`.
    pub fn new(sigma: f64, beta_p: f64) -> ModelSizeCurve {
        assert!(sigma > 0.0, "sigma must be positive");
        assert!(
            (0.5..1.0).contains(&beta_p),
            "beta_p must be in [0.5, 1), got {beta_p}"
        );
        ModelSizeCurve { sigma, beta_p }
    }

    /// Multiplicative model growth implied by a data growth of
    /// `data_scale` (the Table 1 "Projected Scale / Model" column):
    /// `p(k·m)/p(m) = k^βp`.
    pub fn model_scale(&self, data_scale: f64) -> f64 {
        assert!(data_scale >= 1.0);
        data_scale.powf(self.beta_p)
    }

    /// Relative capacity at `m` samples (units depend on the fitted σ).
    pub fn capacity_at(&self, m: f64) -> f64 {
        self.sigma * m.powf(self.beta_p)
    }
}

/// The three-region learning-curve sketch of Figure 6: a best-guess plateau
/// for small data, the power-law region, and an irreducible-error floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchCurve {
    /// The power-law mid-region.
    pub power_law: LearningCurve,
    /// Error of best guessing (small-data plateau).
    pub best_guess_error: f64,
    /// Irreducible error floor (Bayes error).
    pub irreducible_error: f64,
}

impl SketchCurve {
    /// Error at `m` samples across all three regions:
    /// `clamp(ε_power(m), irreducible, best_guess)`.
    pub fn error_at(&self, m: f64) -> f64 {
        self.power_law
            .error_at(m)
            .clamp(self.irreducible_error, self.best_guess_error)
    }

    /// Dataset size where the curve leaves the small-data region.
    pub fn small_data_boundary(&self) -> f64 {
        self.power_law.data_for_error(self.best_guess_error)
    }

    /// Dataset size where the curve enters the irreducible region.
    pub fn irreducible_boundary(&self) -> f64 {
        self.power_law.data_for_error(self.irreducible_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_lm_curve() -> LearningCurve {
        LearningCurve::new(13.0, -0.066)
    }

    #[test]
    fn reproduces_word_lm_sota_from_table1() {
        // ε(768M) ≈ 3.37 nats/word — the paper's current-SOTA row.
        let e = word_lm_curve().error_at(768e6);
        assert!((e - 3.37).abs() < 0.03, "got {e}");
    }

    #[test]
    fn inversion_round_trips() {
        let c = word_lm_curve();
        let m = c.data_for_error(2.48);
        let e = c.error_at(m);
        assert!((e - 2.48).abs() < 1e-9);
    }

    #[test]
    fn word_lm_data_scale_is_about_100x() {
        let s = word_lm_curve().data_scale(3.37, 2.48);
        assert!((s - 104.0).abs() < 2.0, "got {s}");
    }

    #[test]
    fn nmt_data_scale_is_about_750x() {
        let c = LearningCurve::new(3.06, -0.128);
        let s = c.data_scale(0.28, 0.12);
        assert!((s / 750.0 - 1.0).abs() < 0.01, "got {s}");
    }

    #[test]
    fn model_scale_follows_data_scale_power() {
        // Word LM: 100× data at βp = 0.68 → ≈ 23× model (Table 1).
        let m = ModelSizeCurve::new(9.4e-4, 0.68);
        let s = m.model_scale(100.0);
        assert!((s - 22.9).abs() < 0.5, "got {s}");
    }

    #[test]
    fn sketch_curve_has_three_regions() {
        let sk = SketchCurve {
            power_law: LearningCurve::new(10.0, -0.3),
            best_guess_error: 5.0,
            irreducible_error: 0.5,
        };
        // Small-data plateau.
        assert_eq!(sk.error_at(1.0), 5.0);
        // Power-law region.
        let mid = sk.error_at(1e3);
        assert!(mid < 5.0 && mid > 0.5);
        // Irreducible floor.
        assert_eq!(sk.error_at(1e12), 0.5);
        assert!(sk.small_data_boundary() < sk.irreducible_boundary());
    }

    #[test]
    fn steeper_exponent_needs_less_data() {
        let shallow = LearningCurve::new(10.0, -0.07);
        let steep = LearningCurve::new(10.0, -0.3);
        assert!(steep.data_scale(3.0, 2.0) < shallow.data_scale(3.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "beta_g")]
    fn rejects_positive_exponent() {
        let _ = LearningCurve::new(1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "improve")]
    fn rejects_worse_target() {
        let _ = word_lm_curve().data_scale(3.0, 3.5);
    }
}
