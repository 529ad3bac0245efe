//! Hardware design-space exploration (paper §6.2.3 and conclusion): which
//! accelerator resource — compute throughput, memory bandwidth, on-chip
//! cache, or memory capacity — actually helps each workload?
//!
//! The paper's recommendation is that large-scale RNN training wants
//! *memory capacity and on-chip caches*, running "counter to emerging
//! accelerator designs" that maximize compute-to-memory ratios. This module
//! prices a set of single-axis hardware upgrades against any model and
//! reports step time, utilization, swap pressure, and the model-parallel
//! ways needed to fit.

use cgraph::{footprint, Scheduler};
use modelzoo::ModelGraph;
use roofline::{
    min_shards_to_fit, per_op_step_time, swap_report, Accelerator, CacheModel, HostLink,
};

/// A named accelerator variant in the design space.
#[derive(Clone, Debug)]
pub struct HardwareVariant {
    /// Short label ("2x compute").
    pub label: String,
    /// The configuration.
    pub accel: Accelerator,
}

/// The default single-axis upgrade sweep around the Table 4 baseline.
pub fn hardware_variants() -> Vec<HardwareVariant> {
    let base = Accelerator::v100_like();
    let mut v = vec![HardwareVariant {
        label: "baseline".into(),
        accel: base.clone(),
    }];
    let mut push = |label: &str, f: &dyn Fn(&mut Accelerator)| {
        let mut a = base.clone();
        f(&mut a);
        v.push(HardwareVariant {
            label: label.into(),
            accel: a,
        });
    };
    push("2x compute", &|a| a.peak_flops *= 2.0);
    push("2x bandwidth", &|a| a.peak_mem_bw *= 2.0);
    push("4x cache", &|a| a.cache_bytes *= 4.0);
    push("4x capacity", &|a| a.mem_capacity *= 4.0);
    push("all 2x", &|a| {
        a.peak_flops *= 2.0;
        a.peak_mem_bw *= 2.0;
        a.cache_bytes *= 2.0;
        a.mem_capacity *= 2.0;
    });
    v
}

/// Sensitivity of one model to one hardware variant.
#[derive(Clone, Debug)]
pub struct SensitivityPoint {
    /// Variant label.
    pub label: String,
    /// Cache-aware per-op step time, seconds.
    pub step_seconds: f64,
    /// Algorithmic FLOP utilization.
    pub flop_utilization: f64,
    /// Speedup over the baseline variant.
    pub speedup: f64,
    /// Training-step footprint, GB (hardware-independent; repeated for
    /// report convenience).
    pub footprint_gb: f64,
    /// Model-parallel ways required to fit without swapping.
    pub min_shards: u64,
    /// Step slowdown if the model instead swapped to host memory.
    pub swap_slowdown: f64,
}

/// Evaluate `model` at subbatch `batch` across `variants`.
pub fn hardware_sensitivity(
    model: &ModelGraph,
    batch: u64,
    variants: &[HardwareVariant],
) -> Vec<SensitivityPoint> {
    assert!(!variants.is_empty());
    let bindings = model.bindings_with_batch(batch);
    let fp = footprint(&model.graph, &bindings, Scheduler::Best).expect("bound");
    let link = HostLink::default();
    let mut points = Vec::with_capacity(variants.len());
    let mut baseline_step = None;
    for v in variants {
        let t = per_op_step_time(&model.graph, &bindings, &v.accel, CacheModel::PanelStream)
            .expect("bound");
        let baseline = *baseline_step.get_or_insert(t.seconds);
        let swap = swap_report(fp.peak_bytes as f64, t.seconds, &v.accel, &link);
        points.push(SensitivityPoint {
            label: v.label.clone(),
            step_seconds: t.seconds,
            flop_utilization: t.flop_utilization,
            speedup: baseline / t.seconds,
            footprint_gb: fp.peak_bytes as f64 / 1e9,
            min_shards: min_shards_to_fit(fp.peak_bytes as f64, &v.accel, &link),
            swap_slowdown: swap.slowdown,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::lstm_p_config;
    use modelzoo::{Domain, ModelConfig};

    fn lstm_p() -> ModelGraph {
        ModelConfig::WordLm(lstm_p_config()).build_training()
    }

    fn point<'a>(pts: &'a [SensitivityPoint], label: &str) -> &'a SensitivityPoint {
        pts.iter()
            .find(|p| p.label == label)
            .expect("variant present")
    }

    #[test]
    fn capacity_upgrade_cuts_required_shards() {
        let pts = hardware_sensitivity(&lstm_p(), 128, &hardware_variants());
        let base = point(&pts, "baseline");
        let cap = point(&pts, "4x capacity");
        assert!(base.min_shards >= 4, "baseline shards {}", base.min_shards);
        assert!(
            cap.min_shards <= base.min_shards / 3,
            "4x capacity should cut shards: {} -> {}",
            base.min_shards,
            cap.min_shards
        );
        // Capacity does nothing for step time.
        assert!((cap.step_seconds - base.step_seconds).abs() < 1e-9);
    }

    #[test]
    fn compute_upgrade_helps_cnn_more_than_rnn() {
        // The paper's segmentation: CNNs can exploit compute-centric
        // designs; RNN steps are partly memory-bound, so doubling FLOP/s
        // buys them less.
        let variants = hardware_variants();
        let rnn = hardware_sensitivity(&lstm_p(), 128, &variants);
        let cnn_model = ModelConfig::default_for(Domain::ImageClassification)
            .with_target_params(100_000_000)
            .build_training();
        let cnn = hardware_sensitivity(&cnn_model, 32, &variants);
        let rnn_speedup = point(&rnn, "2x compute").speedup;
        let cnn_speedup = point(&cnn, "2x compute").speedup;
        assert!(
            cnn_speedup > rnn_speedup,
            "cnn {cnn_speedup} vs rnn {rnn_speedup}"
        );
    }

    #[test]
    fn bandwidth_upgrade_helps_rnn_more_than_cnn() {
        let variants = hardware_variants();
        let rnn = hardware_sensitivity(&lstm_p(), 128, &variants);
        let cnn_model = ModelConfig::default_for(Domain::ImageClassification)
            .with_target_params(100_000_000)
            .build_training();
        let cnn = hardware_sensitivity(&cnn_model, 32, &variants);
        let rnn_speedup = point(&rnn, "2x bandwidth").speedup;
        let cnn_speedup = point(&cnn, "2x bandwidth").speedup;
        assert!(
            rnn_speedup > cnn_speedup,
            "rnn {rnn_speedup} vs cnn {cnn_speedup}"
        );
    }

    #[test]
    fn balanced_upgrade_dominates_single_axes_for_step_time() {
        let pts = hardware_sensitivity(&lstm_p(), 128, &hardware_variants());
        let all = point(&pts, "all 2x");
        for label in ["2x compute", "2x bandwidth", "4x cache"] {
            let single = point(&pts, label);
            assert!(
                all.step_seconds <= single.step_seconds + 1e-12,
                "all-2x should dominate {label}"
            );
        }
    }

    #[test]
    fn swapping_is_priced_for_oversized_models() {
        let pts = hardware_sensitivity(&lstm_p(), 128, &hardware_variants());
        let base = point(&pts, "baseline");
        assert!(base.swap_slowdown > 1.3, "slowdown {}", base.swap_slowdown);
        let cap = point(&pts, "4x capacity");
        assert!(cap.swap_slowdown < base.swap_slowdown);
    }
}
