//! Synchronous data-parallel SGD scaling (paper §6.2.1, Figure 12).

use roofline::Accelerator;

use crate::allreduce::{ring_allreduce_seconds, CommConfig};

/// Description of one data-parallel worker's training step.
#[derive(Clone, Copy, Debug)]
pub struct WorkerStep {
    /// Compute time of one step on one worker, seconds (typically the
    /// cache-hierarchy-aware per-op roofline time).
    pub compute_seconds: f64,
    /// Algorithmic FLOPs of one worker's step.
    pub alg_flops: f64,
    /// Gradient bytes to allreduce (4·params for f32 SGD).
    pub gradient_bytes: f64,
    /// Training samples one worker consumes per step (e.g. `b·q` tokens for
    /// an LM, `b` images for a classifier).
    pub samples_per_step: f64,
}

/// One point of the data-parallel scaling curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Number of data-parallel workers.
    pub workers: u64,
    /// Global batch in samples-per-step terms (`workers · samples_per_step`).
    pub global_samples_per_step: f64,
    /// Wall-clock step time including gradient reduction, seconds.
    pub step_seconds: f64,
    /// Time spent in the allreduce, seconds.
    pub comm_seconds: f64,
    /// Days per epoch over `dataset_samples`.
    pub epoch_days: f64,
    /// Algorithmic FLOP utilization across the fleet.
    pub flop_utilization: f64,
}

/// Simulate synchronous SGD over a ring allreduce for one worker count.
pub fn data_parallel_point(
    step: &WorkerStep,
    workers: u64,
    dataset_samples: f64,
    accel: &Accelerator,
    comm: &CommConfig,
) -> ScalePoint {
    assert!(workers >= 1);
    let comm_seconds = ring_allreduce_seconds(step.gradient_bytes, workers, comm);
    let step_seconds = step.compute_seconds + comm_seconds;
    let global_samples_per_step = workers as f64 * step.samples_per_step;
    let steps_per_epoch = dataset_samples / global_samples_per_step;
    let epoch_days = steps_per_epoch * step_seconds / 86_400.0;
    // Fleet utilization: each worker performs `alg_flops` useful FLOPs per
    // wall-clock step.
    let flop_utilization = step.alg_flops / (step_seconds * accel.peak_flops);
    ScalePoint {
        workers,
        global_samples_per_step,
        step_seconds,
        comm_seconds,
        epoch_days,
        flop_utilization,
    }
}

/// [`data_parallel_point`] with gradient compression applied before the
/// allreduce (paper §6.2.3's communication-reduction direction): wire bytes
/// shrink per the scheme, and the encode/decode cost is added to the step.
pub fn data_parallel_point_compressed(
    step: &WorkerStep,
    workers: u64,
    dataset_samples: f64,
    accel: &Accelerator,
    comm: &CommConfig,
    compression: crate::compression::GradCompression,
) -> ScalePoint {
    let params = step.gradient_bytes / 4.0; // baseline is f32
    let codec = compression.codec_seconds(params, accel.achievable_flops());
    let compressed = WorkerStep {
        compute_seconds: step.compute_seconds + codec,
        gradient_bytes: compression.wire_bytes(params),
        ..*step
    };
    data_parallel_point(&compressed, workers, dataset_samples, accel, comm)
}

/// The Figure 12 sweep: epoch time and utilization across worker counts.
pub fn data_parallel_sweep(
    step: &WorkerStep,
    worker_counts: &[u64],
    dataset_samples: f64,
    accel: &Accelerator,
    comm: &CommConfig,
) -> Vec<ScalePoint> {
    worker_counts
        .iter()
        .map(|&n| data_parallel_point(step, n, dataset_samples, accel, comm))
        .collect()
}

/// Smallest worker count from `candidates` whose epoch time meets
/// `target_days`, if any.
pub fn workers_for_epoch_target(
    step: &WorkerStep,
    candidates: &[u64],
    dataset_samples: f64,
    target_days: f64,
    accel: &Accelerator,
    comm: &CommConfig,
) -> Option<ScalePoint> {
    candidates
        .iter()
        .map(|&n| data_parallel_point(step, n, dataset_samples, accel, comm))
        .find(|p| p.epoch_days <= target_days)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §6 case-study worker: cache-aware LSTM-p step.
    fn case_study_step() -> WorkerStep {
        WorkerStep {
            compute_seconds: 17.07,
            alg_flops: 123e12,
            gradient_bytes: 33.6e9,
            samples_per_step: 128.0 * 25.45, // tokens per worker-step
        }
    }

    /// Dataset size chosen so the single-accelerator cache-aware epoch is
    /// the paper's 4671 days (§6.1).
    fn dataset() -> f64 {
        4671.0 * 86_400.0 / 17.07 * 128.0 * 25.45
    }

    #[test]
    fn epoch_time_decreases_monotonically() {
        let a = Accelerator::v100_like();
        let c = CommConfig::default();
        let sweep = data_parallel_sweep(
            &case_study_step(),
            &[1, 4, 16, 64, 256, 1024, 4096],
            dataset(),
            &a,
            &c,
        );
        for w in sweep.windows(2) {
            assert!(w[1].epoch_days < w[0].epoch_days);
            assert!(w[1].flop_utilization <= w[0].flop_utilization);
        }
    }

    #[test]
    fn paper_fig12_anchor_points() {
        // Paper: 1024 workers → 6.2 days/epoch at 34% utilization;
        //         512 workers → 11.1 days at 38%.
        let a = Accelerator::v100_like();
        let c = CommConfig::default();
        let p1024 = data_parallel_point(&case_study_step(), 1024, dataset(), &a, &c);
        assert!((p1024.epoch_days - 6.2).abs() < 0.5, "{}", p1024.epoch_days);
        assert!(
            (p1024.flop_utilization - 0.34).abs() < 0.03,
            "{}",
            p1024.flop_utilization
        );
        let p512 = data_parallel_point(&case_study_step(), 512, dataset(), &a, &c);
        assert!((p512.epoch_days - 11.1).abs() < 0.8, "{}", p512.epoch_days);
        assert!(
            (p512.flop_utilization - 0.38).abs() < 0.03,
            "{}",
            p512.flop_utilization
        );
    }

    #[test]
    fn utilization_at_one_worker_matches_compute_only() {
        let a = Accelerator::v100_like();
        let c = CommConfig::default();
        let p = data_parallel_point(&case_study_step(), 1, dataset(), &a, &c);
        assert_eq!(p.comm_seconds, 0.0);
        let expected = 123e12 / (17.07 * a.peak_flops);
        assert!((p.flop_utilization - expected).abs() < 1e-12);
    }

    #[test]
    fn compression_improves_scaling_at_high_worker_counts() {
        use crate::compression::GradCompression;
        let a = Accelerator::v100_like();
        let c = CommConfig::default();
        let step = case_study_step();
        let plain = data_parallel_point(&step, 4096, dataset(), &a, &c);
        let int8 =
            data_parallel_point_compressed(&step, 4096, dataset(), &a, &c, GradCompression::Int8);
        let ternary = data_parallel_point_compressed(
            &step,
            4096,
            dataset(),
            &a,
            &c,
            GradCompression::Ternary,
        );
        assert!(int8.comm_seconds < plain.comm_seconds);
        assert!(ternary.comm_seconds < int8.comm_seconds);
        assert!(int8.epoch_days < plain.epoch_days);
        // None round-trips exactly.
        let none =
            data_parallel_point_compressed(&step, 4096, dataset(), &a, &c, GradCompression::None);
        assert!((none.step_seconds - plain.step_seconds).abs() < 1e-12);
    }

    #[test]
    fn compression_cannot_remove_latency_floor() {
        // The ring's 2(N−1)·α hop overhead is payload-independent, so even
        // infinite compression leaves an overhead floor — the reason the
        // paper also cites latency-oriented work.
        use crate::compression::GradCompression;
        let a = Accelerator::v100_like();
        let c = CommConfig::default();
        let extreme = data_parallel_point_compressed(
            &case_study_step(),
            1024,
            dataset(),
            &a,
            &c,
            GradCompression::TopK { ratio: 10_000 },
        );
        let floor = 2.0 * 1023.0 * c.hop_overhead;
        assert!(extreme.comm_seconds >= floor);
        assert!(extreme.comm_seconds < floor * 1.1);
    }

    #[test]
    fn workers_for_target_finds_first_adequate() {
        let a = Accelerator::v100_like();
        let c = CommConfig::default();
        let candidates: Vec<u64> = (0..14).map(|i| 1 << i).collect();
        let p = workers_for_epoch_target(&case_study_step(), &candidates, dataset(), 7.0, &a, &c)
            .expect("some count meets 7 days");
        assert!(p.epoch_days <= 7.0);
        // The next-smaller power of two must miss the target.
        let prev = data_parallel_point(&case_study_step(), p.workers / 2, dataset(), &a, &c);
        assert!(prev.epoch_days > 7.0);
    }
}
