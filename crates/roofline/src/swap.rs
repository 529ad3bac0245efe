//! Host-memory swapping model (paper §5.1, §6.2.3).
//!
//! When a training step's footprint exceeds accelerator memory, frameworks
//! either fail or migrate tensors to host memory over the host link — the
//! paper observes TensorFlow start swapping at 80% of its 12 GB GPU
//! (Figure 10) and calls migration "an expensive operation". This module
//! prices that choice: every byte beyond the usable capacity must cross the
//! host link twice per step (out and back in), serialized with compute in
//! the worst case and overlapped in the best case.

use crate::accel::Accelerator;

/// Host-link configuration for swap-traffic pricing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostLink {
    /// Host↔accelerator bandwidth, B/s (PCIe 3.0 ×16 ≈ 16 GB/s).
    pub bandwidth: f64,
    /// Fraction of accelerator memory usable before swapping begins
    /// (TensorFlow: 0.8).
    pub usable_fraction: f64,
}

impl Default for HostLink {
    fn default() -> HostLink {
        HostLink {
            bandwidth: 16e9,
            usable_fraction: 0.8,
        }
    }
}

/// Swap analysis of one training step on one accelerator.
#[derive(Clone, Copy, Debug)]
pub struct SwapReport {
    /// Bytes that do not fit in usable accelerator memory.
    pub spilled_bytes: f64,
    /// Host-link transfer time per step (each spilled byte leaves and
    /// returns), seconds.
    pub transfer_seconds: f64,
    /// Step time when transfers serialize with compute.
    pub serialized_step_seconds: f64,
    /// Step time with perfect compute/transfer overlap
    /// (`max(compute, transfer)`).
    pub overlapped_step_seconds: f64,
    /// Slowdown factor vs the no-swap step (serialized).
    pub slowdown: f64,
}

/// Price the swapping a step of `footprint_bytes` and `compute_seconds`
/// incurs on `accel` through `link`.
pub fn swap_report(
    footprint_bytes: f64,
    compute_seconds: f64,
    accel: &Accelerator,
    link: &HostLink,
) -> SwapReport {
    assert!(footprint_bytes >= 0.0 && compute_seconds >= 0.0);
    let usable = accel.mem_capacity * link.usable_fraction;
    let spilled_bytes = (footprint_bytes - usable).max(0.0);
    obs::recorder().counter("roofline.swap_spilled_bytes", spilled_bytes);
    let transfer_seconds = 2.0 * spilled_bytes / link.bandwidth;
    let serialized = compute_seconds + transfer_seconds;
    SwapReport {
        spilled_bytes,
        transfer_seconds,
        serialized_step_seconds: serialized,
        overlapped_step_seconds: compute_seconds.max(transfer_seconds),
        slowdown: if compute_seconds > 0.0 {
            serialized / compute_seconds
        } else {
            1.0
        },
    }
}

/// Minimum model-parallel ways needed so each shard's footprint fits in
/// usable accelerator memory without swapping (the paper's §6.2: the word
/// LM needs "at least 4 accelerators" per worker at 113.8 GB / 32 GB).
pub fn min_shards_to_fit(footprint_bytes: f64, accel: &Accelerator, link: &HostLink) -> u64 {
    let usable = accel.mem_capacity * link.usable_fraction;
    assert!(usable > 0.0);
    (footprint_bytes / usable).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel() -> Accelerator {
        Accelerator::v100_like()
    }

    #[test]
    fn fitting_step_pays_nothing() {
        let r = swap_report(10e9, 1.0, &accel(), &HostLink::default());
        assert_eq!(r.spilled_bytes, 0.0);
        assert_eq!(r.serialized_step_seconds, 1.0);
        assert_eq!(r.slowdown, 1.0);
    }

    #[test]
    fn spill_begins_at_eighty_percent() {
        // 32 GiB × 0.8 ≈ 27.5 GB usable.
        let a = accel();
        let link = HostLink::default();
        let usable = a.mem_capacity * 0.8;
        let below = swap_report(usable - 1.0, 1.0, &a, &link);
        let above = swap_report(usable + 1e9, 1.0, &a, &link);
        assert_eq!(below.spilled_bytes, 0.0);
        assert!((above.spilled_bytes - 1e9).abs() < 1.0);
    }

    #[test]
    fn case_study_word_lm_swapping_is_ruinous() {
        // LSTM-p: ~107 GB footprint, ~10 s compute step. Swapping 80 GB
        // through 16 GB/s doubles the step time — the paper's argument for
        // model parallelism instead.
        let r = swap_report(107e9, 10.0, &accel(), &HostLink::default());
        assert!(r.spilled_bytes > 75e9);
        assert!(r.slowdown > 1.8, "slowdown {}", r.slowdown);
        // Even perfect overlap leaves the link busy almost the whole step.
        assert!(r.transfer_seconds > 9.0, "transfer {}", r.transfer_seconds);
        assert!(r.overlapped_step_seconds >= 10.0);
    }

    #[test]
    fn min_shards_matches_paper_case_study() {
        // Paper §6.2: 113.8 GB per step / 32 GB per accelerator → 4 ways.
        // With the 80%-usable rule the requirement rises to 5.
        let a = accel();
        let strict = HostLink {
            usable_fraction: 1.0,
            ..HostLink::default()
        };
        assert_eq!(min_shards_to_fit(113.8e9, &a, &strict), 4);
        assert_eq!(min_shards_to_fit(113.8e9, &a, &HostLink::default()), 5);
        assert_eq!(min_shards_to_fit(1e9, &a, &strict), 1);
    }

    #[test]
    fn faster_link_reduces_slowdown() {
        let a = accel();
        let slow = HostLink {
            bandwidth: 16e9,
            ..HostLink::default()
        };
        let fast = HostLink {
            bandwidth: 64e9,
            ..HostLink::default()
        };
        let rs = swap_report(100e9, 5.0, &a, &slow);
        let rf = swap_report(100e9, 5.0, &a, &fast);
        assert!(rf.serialized_step_seconds < rs.serialized_step_seconds);
    }
}
