//! First-order-model verification (paper §4.1 / Appendix A): the paper
//! states its concise formulas are cross-checked with "high-fidelity
//! modeling" — in Catamount, full symbolic graph evaluation. This module is
//! that check: fit the Table 2 trends on one grid of models, then measure a
//! *different* grid exactly through the graph IR (the [`FamilyEngine`]'s
//! closed forms, bit-identical to a concrete build) and report the
//! prediction error.

use modelzoo::{Domain, ModelConfig};

use crate::trends::DomainTrends;
use crate::FamilyEngine;

/// Prediction-error summary of one quantity.
#[derive(Clone, Copy, Debug)]
pub struct ErrorStats {
    /// Mean relative error over the verification grid.
    pub mean_rel: f64,
    /// Worst relative error.
    pub max_rel: f64,
}

impl ErrorStats {
    fn from_errors(errors: &[f64]) -> ErrorStats {
        assert!(!errors.is_empty());
        ErrorStats {
            mean_rel: errors.iter().sum::<f64>() / errors.len() as f64,
            max_rel: errors.iter().fold(0.0f64, |a, &b| a.max(b)),
        }
    }
}

/// Verification report: first-order predictions vs exact graph measurement.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    /// The domain verified.
    pub domain: Domain,
    /// FLOPs-per-step prediction error (`γ·p·b` vs measured).
    pub flops: ErrorStats,
    /// Bytes-per-step prediction error (`λp + µb√p` vs measured).
    pub bytes: ErrorStats,
    /// Footprint prediction error (`δ·p` vs measured).
    pub footprint: ErrorStats,
    /// Points measured.
    pub points: usize,
}

/// Verify fitted `trends` against exact measurements at the given
/// `(params, subbatch)` grid points.
pub fn verify_first_order(
    domain: Domain,
    trends: &DomainTrends,
    grid: &[(u64, u64)],
) -> VerificationReport {
    assert!(!grid.is_empty(), "verification grid must be non-empty");
    let jobs: Vec<(ModelConfig, u64)> = grid
        .iter()
        .map(|&(p, b)| (ModelConfig::default_for(domain).with_target_params(p), b))
        .collect();
    let measurements = FamilyEngine::global().characterize_many(&jobs);
    let rel = |pred: f64, meas: f64| (pred - meas).abs() / meas.abs().max(f64::MIN_POSITIVE);
    let flops: Vec<f64> = measurements
        .iter()
        .map(|m| rel(trends.flops(m.params, m.subbatch as f64), m.flops_per_step))
        .collect();
    let bytes: Vec<f64> = measurements
        .iter()
        .map(|m| rel(trends.bytes(m.params, m.subbatch as f64), m.bytes_per_step))
        .collect();
    let footprint: Vec<f64> = measurements
        .iter()
        .map(|m| rel(trends.footprint(m.params), m.footprint_bytes))
        .collect();
    VerificationReport {
        domain,
        flops: ErrorStats::from_errors(&flops),
        bytes: ErrorStats::from_errors(&bytes),
        footprint: ErrorStats::from_errors(&footprint),
        points: measurements.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trends::fit_domain_trends;

    #[test]
    fn wordlm_first_order_predicts_within_bands() {
        // Fit on one grid; verify on strictly larger, unseen models.
        let trends = fit_domain_trends(Domain::WordLm, 300_000_000, 2_000_000_000, 3, &[32, 128]);
        let report = verify_first_order(
            Domain::WordLm,
            &trends,
            &[(2_500_000_000, 64), (4_000_000_000, 128)],
        );
        assert_eq!(report.points, 2);
        assert!(report.flops.max_rel < 0.10, "flops err {:?}", report.flops);
        assert!(report.bytes.max_rel < 0.30, "bytes err {:?}", report.bytes);
        assert!(
            report.footprint.max_rel < 0.40,
            "footprint err {:?}",
            report.footprint
        );
    }

    #[test]
    fn errors_grow_when_extrapolating_into_the_wrong_regime() {
        // Trends fitted at frontier scale mispredict tiny embedding-
        // dominated models — the paper's own caveat about the √p form.
        let trends = fit_domain_trends(Domain::WordLm, 300_000_000, 2_000_000_000, 3, &[32, 128]);
        let small = verify_first_order(Domain::WordLm, &trends, &[(5_000_000, 32)]);
        let large = verify_first_order(Domain::WordLm, &trends, &[(2_500_000_000, 32)]);
        assert!(small.flops.max_rel > large.flops.max_rel);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_grid() {
        let trends = DomainTrends {
            gamma: 481.0,
            lambda: 1755.0,
            mu: 30784.0,
            delta: 11.94,
        };
        let _ = verify_first_order(Domain::WordLm, &trends, &[]);
    }
}
