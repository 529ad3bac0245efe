//! Roofline step-time estimation (paper §5.2.2).

use cgraph::NumericStats;

use crate::accel::Accelerator;

/// Which side of the roofline bounds a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound {
    /// Limited by compute throughput.
    Compute,
    /// Limited by memory bandwidth.
    Memory,
}

/// A roofline time estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RooflineTime {
    /// Estimated execution time, seconds.
    pub seconds: f64,
    /// Binding resource.
    pub bound: Bound,
    /// Achieved fraction of *peak* compute throughput
    /// (the paper's "algorithmic FLOP utilization").
    pub flop_utilization: f64,
}

/// Best-case roofline execution time of a workload with the given
/// algorithmic FLOPs and bytes (paper Eq. in §5.2.2):
/// `rt = max(c / 0.8·x_c, a / 0.7·x_a)`.
pub fn roofline_time(flops: f64, bytes: f64, accel: &Accelerator) -> RooflineTime {
    assert!(flops >= 0.0 && bytes >= 0.0);
    let t_c = flops / accel.achievable_flops();
    let t_m = bytes / accel.achievable_bw();
    let (seconds, bound) = if t_c >= t_m {
        (t_c, Bound::Compute)
    } else {
        (t_m, Bound::Memory)
    };
    let flop_utilization = if seconds > 0.0 {
        flops / (seconds * accel.peak_flops)
    } else {
        0.0
    };
    RooflineTime {
        seconds,
        bound,
        flop_utilization,
    }
}

/// Roofline time of a whole training step from its cost summary.
pub fn step_time(stats: &NumericStats, accel: &Accelerator) -> RooflineTime {
    roofline_time(stats.flops, stats.bytes, accel)
}

/// Training time for one pass over `dataset_samples` samples when each step
/// consumes `batch` samples and takes `step_seconds`.
pub fn epoch_seconds(dataset_samples: f64, batch: f64, step_seconds: f64) -> f64 {
    assert!(batch > 0.0 && dataset_samples >= 0.0);
    (dataset_samples / batch) * step_seconds
}

/// Convert seconds to days (the paper's epoch-time unit).
pub fn to_days(seconds: f64) -> f64 {
    seconds / 86_400.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bound_at_high_intensity() {
        let a = Accelerator::v100_like();
        // intensity 100 FLOP/B >> ridge 19.9 → compute bound at 80% of peak.
        let r = roofline_time(100e12, 1e12, &a);
        assert_eq!(r.bound, Bound::Compute);
        assert!((r.flop_utilization - 0.8).abs() < 1e-12);
        assert!((r.seconds - 100e12 / (0.8 * 15.67e12)).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_at_low_intensity() {
        let a = Accelerator::v100_like();
        // intensity 1 FLOP/B << ridge → memory bound, poor utilization.
        let r = roofline_time(1e12, 1e12, &a);
        assert_eq!(r.bound, Bound::Memory);
        assert!(r.flop_utilization < 0.1);
    }

    #[test]
    fn crossover_at_achievable_ridge() {
        let a = Accelerator::v100_like();
        let ridge = a.achievable_ridge_point();
        let below = roofline_time(0.99 * ridge * 1e9, 1e9, &a);
        let above = roofline_time(1.01 * ridge * 1e9, 1e9, &a);
        assert_eq!(below.bound, Bound::Memory);
        assert_eq!(above.bound, Bound::Compute);
    }

    #[test]
    fn epoch_time_scales_inverse_batch() {
        let one = epoch_seconds(1e6, 32.0, 0.1);
        let two = epoch_seconds(1e6, 64.0, 0.1);
        assert!((one - 2.0 * two).abs() < 1e-9);
        assert!((to_days(86_400.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table3_step_times_from_paper_flop_counts() {
        // Table 3 step seconds follow from its TFLOPs/step via the roofline:
        // speech 72 TFLOPs → 5.8 s; word LM 1444 TFLOPs → 115 s.
        let a = Accelerator::v100_like();
        let speech = roofline_time(72e12, 2.8e12, &a);
        assert!(
            (speech.seconds - 5.8).abs() < 0.3,
            "step {}",
            speech.seconds
        );
        let wordlm = roofline_time(1444e12, 41.5e12, &a);
        assert!(
            (wordlm.seconds - 115.0).abs() < 3.0,
            "step {}",
            wordlm.seconds
        );
    }

    #[test]
    fn table3_resnet_epoch_band() {
        // ResNet row: 28 TFLOPs/step at subbatch 32, 2.3 s/step, 84 days for
        // a 103M-image epoch (each batch element is one sample).
        let a = Accelerator::v100_like();
        let r = roofline_time(28e12, 0.4e12, &a);
        assert!((r.seconds - 2.3).abs() < 0.2, "step {}", r.seconds);
        let days = to_days(epoch_seconds(103e6, 32.0, r.seconds));
        assert!((days - 84.0).abs() < 8.0, "epoch days {days}");
    }
}
