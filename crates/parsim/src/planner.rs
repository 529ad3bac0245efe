//! Automatic parallelism planning (paper §6.2.3: "Frameworks should aim to
//! automatically and dynamically subdivide the computation, automatically
//! map appropriate compute graph portions to compute resources").
//!
//! Given one worker's step profile and a training-time target, the planner
//! searches the (data-parallel workers × model-parallel ways) grid for the
//! cheapest fleet that (a) fits each shard in accelerator memory and
//! (b) meets the epoch deadline — the decision the paper works through by
//! hand in §6.2.

use roofline::Accelerator;

use crate::allreduce::CommConfig;
use crate::dataparallel::WorkerStep;
use crate::modelparallel::Stage;
use crate::search::{plan_point, split_variants};

/// Model-parallel strategy the planner may apply within one worker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelParallelism {
    /// No intra-worker split (requires the model to fit one accelerator).
    None,
    /// Layer-wise pipeline with the given number of in-flight microbatches.
    LayerPipeline {
        /// Concurrent microbatches (1 = strictly sequential stages).
        microbatches: u64,
    },
}

/// The planning problem.
#[derive(Clone, Debug)]
pub struct PlanRequest {
    /// One worker's step profile (compute time, FLOPs, gradient bytes,
    /// samples per step).
    pub step: WorkerStep,
    /// Per-worker training-step footprint, bytes.
    pub footprint_bytes: f64,
    /// Layer-parallel stages of the model (for footprint splitting); must
    /// be non-empty. A single stage disables model parallelism.
    pub stages: Vec<Stage>,
    /// Dataset size, samples.
    pub dataset_samples: f64,
    /// Epoch deadline, days.
    pub target_epoch_days: f64,
    /// Usable fraction of accelerator memory (swap threshold).
    pub usable_mem_fraction: f64,
    /// Candidate data-parallel worker counts (e.g. powers of two).
    pub worker_candidates: Vec<u64>,
    /// Intra-worker pipelining strategy when a model split is needed.
    pub model_parallelism: ModelParallelism,
}

impl PlanRequest {
    /// A sensible default search over powers of two up to 2¹⁴ workers with
    /// 2-microbatch pipelining.
    pub fn new(
        step: WorkerStep,
        footprint_bytes: f64,
        stages: Vec<Stage>,
        dataset_samples: f64,
        target_epoch_days: f64,
    ) -> PlanRequest {
        PlanRequest {
            step,
            footprint_bytes,
            stages,
            dataset_samples,
            target_epoch_days,
            usable_mem_fraction: 0.8,
            worker_candidates: (0..=14).map(|i| 1u64 << i).collect(),
            model_parallelism: ModelParallelism::LayerPipeline { microbatches: 2 },
        }
    }
}

/// A feasible plan found by the planner.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Data-parallel worker count.
    pub dp_workers: u64,
    /// Accelerators per worker (1 = no model parallelism).
    pub mp_ways: u64,
    /// Total accelerators (`dp_workers · mp_ways`).
    pub total_accelerators: u64,
    /// Wall-clock step time, seconds.
    pub step_seconds: f64,
    /// Days per epoch.
    pub epoch_days: f64,
    /// Fleet algorithmic FLOP utilization.
    pub flop_utilization: f64,
    /// Peak per-accelerator footprint, GB.
    pub mem_per_accel_gb: f64,
}

/// Search the plan space; returns the feasible plan with the fewest total
/// accelerators (ties broken by higher utilization), or `None` if no
/// candidate meets the deadline.
///
/// Point evaluation is shared with [`crate::search`]
/// ([`split_variants`] + [`plan_point`]), so this is the same arithmetic
/// the full plan-search subsystem runs — just restricted to one
/// accelerator and the request's single pipelining strategy.
pub fn plan(request: &PlanRequest, accel: &Accelerator, comm: &CommConfig) -> Option<Plan> {
    assert!(
        !request.stages.is_empty(),
        "planner needs at least one stage"
    );
    let usable = accel.mem_capacity * request.usable_mem_fraction;
    let micros: &[u64] = match request.model_parallelism {
        ModelParallelism::None => &[],
        ModelParallelism::LayerPipeline { ref microbatches } => std::slice::from_ref(microbatches),
    };
    let mut best: Option<Plan> = None;
    for variant in split_variants(
        &request.stages,
        request.footprint_bytes,
        request.step.compute_seconds,
        micros,
    ) {
        if variant.mem_per_accel > usable {
            continue; // would swap — rejected outright, like the paper
        }
        for &workers in &request.worker_candidates {
            let candidate = plan_point(
                &request.step,
                &variant,
                workers,
                request.dataset_samples,
                accel.peak_flops,
                comm,
            );
            if candidate.epoch_days > request.target_epoch_days {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    candidate.total_accelerators < b.total_accelerators
                        || (candidate.total_accelerators == b.total_accelerators
                            && candidate.flop_utilization > b.flop_utilization)
                }
            };
            if better {
                best = Some(candidate);
            }
            break; // candidates ascend; the first feasible count is minimal
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(x: f64) -> f64 {
        x * 1e9
    }

    /// The §6 case study as a planning problem.
    fn case_study_request(target_days: f64) -> PlanRequest {
        let step = WorkerStep {
            compute_seconds: 17.07,
            alg_flops: 123e12,
            gradient_bytes: 33.6e9,
            samples_per_step: 128.0 * 25.45,
        };
        let stages = vec![
            Stage {
                name: "embedding".into(),
                weight_bytes: gb(59.5),
                activation_bytes: gb(0.5),
            },
            Stage {
                name: "lstm0".into(),
                weight_bytes: gb(4.3),
                activation_bytes: gb(12.7),
            },
            Stage {
                name: "lstm1".into(),
                weight_bytes: gb(4.3),
                activation_bytes: gb(12.7),
            },
            Stage {
                name: "out".into(),
                weight_bytes: gb(13.0),
                activation_bytes: gb(19.0),
            },
        ];
        let dataset = 4671.0 * 86_400.0 / 17.07 * 128.0 * 25.45;
        let mut req = PlanRequest::new(step, gb(113.8), stages, dataset, target_days);
        // The paper places stages against the full 32 GB capacity.
        req.usable_mem_fraction = 1.0;
        req
    }

    #[test]
    fn reproduces_case_study_shape() {
        // 113.8 GB cannot fit one 32 GB accelerator, so the planner must go
        // 4-way model parallel and then scale data parallelism to the
        // 7-day target — the paper's hand-derived answer.
        let accel = Accelerator::v100_like();
        let comm = CommConfig::default();
        let plan = plan(&case_study_request(7.5), &accel, &comm).expect("feasible");
        assert_eq!(plan.mp_ways, 4);
        assert!(plan.epoch_days <= 7.5);
        // Waterfilled peak is exactly the paper's 32 GB (within the 32 GiB
        // = 34.4 GB capacity the paper places against).
        assert!(
            plan.mem_per_accel_gb <= 32.1,
            "per-accel {} GB must fit",
            plan.mem_per_accel_gb
        );
        // The paper lands at 2048 total accelerators for ~7 days; the
        // planner's pipeline schedule should be in the same decade.
        assert!(
            (512..=4096).contains(&plan.total_accelerators),
            "total {}",
            plan.total_accelerators
        );
    }

    #[test]
    fn infeasible_deadline_returns_none() {
        let accel = Accelerator::v100_like();
        let comm = CommConfig::default();
        assert!(plan(&case_study_request(0.0001), &accel, &comm).is_none());
    }

    #[test]
    fn small_model_avoids_model_parallelism() {
        let accel = Accelerator::v100_like();
        let comm = CommConfig::default();
        let mut req = case_study_request(30.0);
        // Shrink the problem to a model that fits one accelerator.
        req.footprint_bytes = gb(10.0);
        for s in &mut req.stages {
            s.weight_bytes /= 20.0;
            s.activation_bytes /= 20.0;
        }
        let plan = plan(&req, &accel, &comm).expect("feasible");
        assert_eq!(plan.mp_ways, 1, "no split needed for a 10 GB model");
    }

    #[test]
    fn looser_deadline_needs_fewer_accelerators() {
        let accel = Accelerator::v100_like();
        let comm = CommConfig::default();
        let tight = plan(&case_study_request(3.0), &accel, &comm).expect("feasible");
        let loose = plan(&case_study_request(60.0), &accel, &comm).expect("feasible");
        assert!(loose.total_accelerators < tight.total_accelerators);
    }

    #[test]
    fn bigger_accelerator_memory_removes_the_split() {
        let mut accel = Accelerator::v100_like();
        accel.mem_capacity *= 8.0; // 256 GB HBM future
        let comm = CommConfig::default();
        let plan = plan(&case_study_request(7.5), &accel, &comm).expect("feasible");
        assert_eq!(plan.mp_ways, 1, "capacity obviates model parallelism");
        // And utilization improves vs the split plan on the small-memory
        // accelerator (the paper's capacity argument in one assertion).
        let small = super::plan(&case_study_request(7.5), &Accelerator::v100_like(), &comm)
            .expect("feasible");
        assert!(plan.flop_utilization > small.flop_utilization);
    }
}
