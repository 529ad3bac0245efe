//! Subbatch-size selection (paper §5.2.1, Figure 11).
//!
//! The training-step costs are affine in the subbatch `b`
//! (`F(b) = f₁·b + f₀`, `A(b) = a₁·b + a₀`), so the whole sweep is computed
//! from the four coefficients of the configuration's step costs, read off
//! the [`FamilyEngine`] instance's closed forms. Three points of interest:
//!
//! * **ridge match** (blue): `b` where graph-level operational intensity
//!   equals the accelerator's achievable ridge point;
//! * **chosen** (orange): the smallest power of two whose per-sample step
//!   time is within 5% of the asymptotic minimum — the paper's
//!   "smallest subbatch that minimizes training-step time per sample",
//!   which lands ≈1.5× above the ridge match for recurrent models;
//! * **saturation** (green): smallest power of two reaching 95% of the
//!   intensity limit `f₁/a₁`.

use modelzoo::ModelConfig;
use roofline::{roofline_time, Accelerator};
use serde::{Deserialize, Serialize};
use symath::Expr;

use crate::FamilyEngine;

/// One subbatch sample of Figure 11.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubbatchPoint {
    /// Subbatch size.
    pub batch: u64,
    /// Graph-level operational intensity, FLOP/B.
    pub op_intensity: f64,
    /// Roofline step time, seconds.
    pub step_seconds: f64,
    /// Step time per batch element, seconds (Figure 11's right axis).
    pub sec_per_sample: f64,
}

/// The Figure 11 sweep plus the three points of interest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubbatchAnalysis {
    /// Power-of-two sweep points.
    pub points: Vec<SubbatchPoint>,
    /// Continuous `b` where intensity crosses the achievable ridge point
    /// (None if intensity exceeds the ridge even at `b = 1` or never
    /// reaches it).
    pub ridge_match: Option<f64>,
    /// The selected subbatch (orange point).
    pub chosen: u64,
    /// Intensity-saturation subbatch (green point).
    pub saturation: u64,
    /// Asymptotic intensity limit `f₁/a₁`.
    pub intensity_limit: f64,
}

/// Affine coefficients of an expression in the batch symbol:
/// `e(b) = slope·b + intercept`, extracted exactly from the symbolic form.
fn affine_in_batch(expr: &Expr) -> (f64, f64) {
    let sym = symath::Symbol::new(modelzoo::BATCH_SYM);
    let coeffs = expr
        .coefficients_in(sym)
        .expect("graph costs are polynomial in the batch symbol");
    let empty = symath::Bindings::new();
    let mut slope = 0.0;
    let mut intercept = 0.0;
    for (power, coeff) in &coeffs {
        let v = coeff
            .eval(&empty)
            .expect("coefficients are batch-free constants");
        if power.is_zero() {
            intercept = v;
        } else if power.is_one() {
            slope = v;
        } else {
            panic!("graph cost is not affine in the batch symbol: b^{power} term");
        }
    }
    (slope, intercept)
}

/// Run the Figure 11 analysis for one model configuration.
///
/// `batches` are the sweep points (typically powers of two). The step costs
/// come from the process-wide [`FamilyEngine`]: no graph is built once the
/// configuration's family is cached.
pub fn subbatch_analysis(
    cfg: &ModelConfig,
    batches: &[u64],
    accel: &Accelerator,
) -> SubbatchAnalysis {
    assert!(!batches.is_empty());
    let (flops, bytes) = FamilyEngine::global().step_costs(cfg);
    let (f1, f0) = affine_in_batch(&flops.expr());
    let (a1, a0) = affine_in_batch(&bytes.expr());
    assert!(f1 > 0.0 && a1 > 0.0);
    let intensity_limit = f1 / a1;

    let eval_point = |b: u64| -> SubbatchPoint {
        let bf = b as f64;
        let flops = f1 * bf + f0;
        let bytes = a1 * bf + a0;
        let t = roofline_time(flops, bytes, accel);
        SubbatchPoint {
            batch: b,
            op_intensity: flops / bytes,
            step_seconds: t.seconds,
            sec_per_sample: t.seconds / bf,
        }
    };

    let points: Vec<SubbatchPoint> = batches.iter().map(|&b| eval_point(b)).collect();

    // Ridge match: solve (f1·b + f0)/(a1·b + a0) = R.
    let ridge = accel.achievable_ridge_point();
    let denom = f1 - ridge * a1;
    let ridge_match = if denom > 0.0 {
        let b = (ridge * a0 - f0) / denom;
        if b >= 1.0 {
            Some(b)
        } else {
            None // intensity already above the ridge at b = 1
        }
    } else {
        None // intensity never reaches the ridge
    };

    // Chosen: smallest sweep batch whose per-sample time is within 5% of the
    // asymptotic per-sample minimum max(f1/…, a1/…).
    let asymptote = (f1 / accel.achievable_flops()).max(a1 / accel.achievable_bw());
    let chosen = points
        .iter()
        .find(|p| p.sec_per_sample <= 1.05 * asymptote)
        .map(|p| p.batch)
        .unwrap_or_else(|| points.last().expect("nonempty").batch);

    // Saturation: smallest sweep batch at 95% of the intensity limit.
    let saturation = points
        .iter()
        .find(|p| p.op_intensity >= 0.95 * intensity_limit)
        .map(|p| p.batch)
        .unwrap_or_else(|| points.last().expect("nonempty").batch);

    SubbatchAnalysis {
        points,
        ridge_match,
        chosen,
        saturation,
        intensity_limit,
    }
}

/// The power-of-two sweep of Figure 11's x-axis: 1 … 262144.
pub fn fig11_batches() -> Vec<u64> {
    (0..=18).map(|i| 1u64 << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelzoo::{Domain, WordLmConfig};

    fn frontier_wordlm() -> ModelConfig {
        // Table 3 scale (23.8B params) with the paper's 40k vocabulary.
        ModelConfig::WordLm(WordLmConfig::default()).with_target_params(23_800_000_000)
    }

    #[test]
    fn wordlm_chosen_subbatch_near_128() {
        // §5.2.1: "subbatch size settles at about 1.5× larger than the
        // ridge-point match", and Table 3 lists 128 for the word LM.
        let a = Accelerator::v100_like();
        let r = subbatch_analysis(&frontier_wordlm(), &fig11_batches(), &a);
        assert!(
            (64..=256).contains(&r.chosen),
            "chosen subbatch {} (paper: 128)",
            r.chosen
        );
        let ridge = r.ridge_match.expect("recurrent models cross the ridge");
        let ratio = r.chosen as f64 / ridge;
        assert!(
            (1.0..=3.0).contains(&ratio),
            "chosen/ridge = {ratio} (paper: ≈1.5)"
        );
    }

    #[test]
    fn intensity_increases_and_saturates_with_batch() {
        let a = Accelerator::v100_like();
        let r = subbatch_analysis(&frontier_wordlm(), &fig11_batches(), &a);
        for w in r.points.windows(2) {
            assert!(w[1].op_intensity >= w[0].op_intensity);
        }
        let last = r.points.last().expect("nonempty");
        assert!(last.op_intensity <= r.intensity_limit * 1.001);
        assert!(last.op_intensity >= 0.95 * r.intensity_limit);
        assert!(r.saturation > r.chosen / 8); // saturation comes later or near
    }

    #[test]
    fn per_sample_time_is_nonincreasing() {
        let a = Accelerator::v100_like();
        let r = subbatch_analysis(&frontier_wordlm(), &fig11_batches(), &a);
        for w in r.points.windows(2) {
            assert!(w[1].sec_per_sample <= w[0].sec_per_sample * 1.0001);
        }
    }

    #[test]
    fn resnet_is_compute_bound_at_tiny_subbatch() {
        // §5: "Even small batch sizes can expose sufficient operational
        // intensity" for CNNs — ridge match at single-digit subbatch.
        let a = Accelerator::v100_like();
        let cfg =
            ModelConfig::default_for(Domain::ImageClassification).with_target_params(732_000_000);
        let r = subbatch_analysis(&cfg, &[1, 2, 4, 8, 16, 32], &a);
        assert!(
            r.chosen <= 8,
            "ResNet chosen subbatch {} should be tiny",
            r.chosen
        );
    }
}
