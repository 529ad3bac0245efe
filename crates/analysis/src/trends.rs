//! Asymptotic trend fits (paper §4.2–4.5, Table 2): extract γ, λ, µ, δ from
//! characterization sweeps.

use modelzoo::Domain;
use scaling::{fit_access_model, fit_proportional};

use crate::characterize::CharacterizationPoint;

/// The paper's first-order per-domain requirement model (one Table 2 row):
///
/// * FLOPs per sample:      `c_t(p) ≈ γ·p`
/// * bytes per step:        `a_t(p,b) ≈ λ·p + µ·b·√p`
/// * operational intensity: `γ·b·√p / ((λ/√p→)·… )` — derived from the above
/// * minimal footprint:     `f_t(p) ≈ δ·p`
#[derive(Clone, Copy, Debug)]
pub struct DomainTrends {
    /// FLOPs per parameter per sample (training step, all phases).
    pub gamma: f64,
    /// Weight-traffic coefficient, bytes per parameter.
    pub lambda: f64,
    /// Activation-traffic coefficient, bytes per `b·√p`.
    pub mu: f64,
    /// Footprint bytes per parameter.
    pub delta: f64,
}

impl DomainTrends {
    /// Predicted FLOPs per training step at `p` parameters and subbatch `b`.
    pub fn flops(&self, p: f64, b: f64) -> f64 {
        self.gamma * p * b
    }

    /// Predicted bytes accessed per training step.
    pub fn bytes(&self, p: f64, b: f64) -> f64 {
        self.lambda * p + self.mu * b * p.sqrt()
    }

    /// Predicted operational intensity (FLOP/B) — the Table 2 closed form
    /// `b·√p / (c₁·√p + c₂·b)` with `c₁ = λ/γ` and `c₂ = µ/γ`.
    pub fn op_intensity(&self, p: f64, b: f64) -> f64 {
        self.flops(p, b) / self.bytes(p, b)
    }

    /// Intensity limit as `p → ∞` at fixed `b`: `γ·b / λ`.
    pub fn intensity_limit_in_p(&self, b: f64) -> f64 {
        self.gamma * b / self.lambda
    }

    /// Intensity limit as `b → ∞` at fixed `p`: `γ·√p / µ`.
    pub fn intensity_limit_in_b(&self, p: f64) -> f64 {
        self.gamma * p.sqrt() / self.mu
    }

    /// Predicted minimal footprint, bytes.
    pub fn footprint(&self, p: f64) -> f64 {
        self.delta * p
    }
}

/// Fit the Table 2 coefficients from sweep points. The sweep must vary both
/// model size and subbatch (use `sweep_domain_batches`); footprint and FLOPs
/// use the largest models, where the asymptotic laws hold.
pub fn fit_trends(points: &[CharacterizationPoint]) -> DomainTrends {
    assert!(points.len() >= 4, "need a sweep to fit trends");
    // γ from per-sample FLOPs vs params.
    let ps: Vec<f64> = points.iter().map(|p| p.params).collect();
    let flops: Vec<f64> = points.iter().map(|p| p.flops_per_sample).collect();
    let gamma = fit_proportional(&ps, &flops);
    // λ, µ from the two-term access model.
    let access: Vec<(f64, f64, f64)> = points
        .iter()
        .map(|p| (p.params, p.subbatch as f64, p.bytes_per_step))
        .collect();
    let (lambda, mu) = fit_access_model(&access);
    // δ from footprint vs params — use batch-independent component by taking
    // the smallest-batch points (weights dominate large models).
    let min_b = points.iter().map(|p| p.subbatch).min().expect("nonempty");
    let fp_pts: Vec<&CharacterizationPoint> =
        points.iter().filter(|p| p.subbatch == min_b).collect();
    let fps: Vec<f64> = fp_pts.iter().map(|p| p.footprint_bytes).collect();
    let fp_params: Vec<f64> = fp_pts.iter().map(|p| p.params).collect();
    let delta = fit_proportional(&fp_params, &fps);
    DomainTrends {
        gamma,
        lambda,
        mu,
        delta,
    }
}

/// Fit Table 2 for one domain by sweeping it (convenience wrapper used by
/// the bench harness).
pub fn fit_domain_trends(
    domain: Domain,
    lo_params: u64,
    hi_params: u64,
    n_points: usize,
    subbatches: &[u64],
) -> DomainTrends {
    let pts = crate::characterize::sweep_domain_batches(
        domain, lo_params, hi_params, n_points, subbatches,
    );
    fit_trends(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::sweep_domain_batches;

    fn wordlm_trends() -> DomainTrends {
        // Fit at large scale: the paper notes the √p form only holds once
        // the hidden dimension dominates the embedding dimension, and the
        // Table 2 asymptotes are explicitly large-model limits.
        let pts = sweep_domain_batches(
            Domain::WordLm,
            300_000_000,
            3_000_000_000,
            3,
            &[16, 64, 128],
        );
        fit_trends(&pts)
    }

    #[test]
    fn wordlm_gamma_is_about_6q() {
        // Table 2: 481 FLOPs/param at q = 80 (≈ 6q: forward 2, backward 4,
        // per unroll step). Our graphs include small pointwise overheads.
        let t = wordlm_trends();
        assert!(
            t.gamma > 380.0 && t.gamma < 620.0,
            "gamma = {} (paper: 481)",
            t.gamma
        );
    }

    #[test]
    fn wordlm_lambda_in_paper_band() {
        // Table 2: 1755 bytes/param (weights re-read every unroll step).
        let t = wordlm_trends();
        assert!(
            t.lambda > 700.0 && t.lambda < 2600.0,
            "lambda = {} (paper: 1755)",
            t.lambda
        );
    }

    #[test]
    fn wordlm_footprint_delta_in_paper_band() {
        // Table 2: 11.94 bytes/param minimal footprint.
        let t = wordlm_trends();
        assert!(
            t.delta > 8.0 && t.delta < 25.0,
            "delta = {} (paper: 11.94)",
            t.delta
        );
    }

    #[test]
    fn predictions_interpolate_measurements() {
        let pts = sweep_domain_batches(Domain::WordLm, 300_000_000, 3_000_000_000, 3, &[16, 128]);
        let t = fit_trends(&pts);
        for p in &pts {
            let pred = t.bytes(p.params, p.subbatch as f64);
            let rel = (pred - p.bytes_per_step).abs() / p.bytes_per_step;
            // The paper calls the two-term form "a good approximation …
            // with a small caveat": terms like the b·q·v output-layer
            // traffic fit neither basis function, so interpolation error
            // up to ~50% at the extremes is expected.
            assert!(rel < 0.5, "bytes prediction off by {rel}");
        }
    }

    #[test]
    fn intensity_limits_are_consistent() {
        let t = DomainTrends {
            gamma: 481.0,
            lambda: 1755.0,
            mu: 30784.0,
            delta: 11.94,
        };
        // At huge p and fixed b, intensity → γb/λ.
        let lim = t.intensity_limit_in_p(128.0);
        let near = t.op_intensity(1e16, 128.0);
        assert!((near / lim - 1.0).abs() < 0.05);
        // At huge b and fixed p, intensity → γ√p/µ.
        let lim_b = t.intensity_limit_in_b(23.8e9);
        let near_b = t.op_intensity(23.8e9, 1e12);
        assert!((near_b / lim_b - 1.0).abs() < 0.05);
    }
}
