//! Plan search over the accelerator registry for a domain's frontier model.
//!
//! Glue between the characterization pipeline and [`parsim::search`]: build
//! one [`parsim::CandidateProfile`] per (accelerator, subbatch) from the
//! scaling projection, the symbolic [`FamilyEngine`](crate::FamilyEngine)
//! stats (batched through `characterize_many`, so profile characterization
//! runs on the rayon pool), and roofline timing — then hand the space to
//! the pruned search.

use modelzoo::{Domain, ModelConfig};
use parsim::{CandidateProfile, CommConfig, SearchResult, SearchSpace, Stage, WorkerStep};
use roofline::{roofline_time, Accelerator};
use scaling::scaling_for;

use crate::{frontier_config, FamilyEngine};

/// What to search over for one domain.
#[derive(Clone, Debug)]
pub struct PlanSearchRequest {
    /// The domain whose frontier-scale model is being planned.
    pub domain: Domain,
    /// Accelerators to rank, as `(registry key, configuration)` pairs.
    pub accels: Vec<(String, Accelerator)>,
    /// Per-worker subbatch candidates.
    pub subbatches: Vec<u64>,
    /// In-flight microbatch candidates for pipeline variants.
    pub microbatches: Vec<u64>,
    /// Epoch deadline, days.
    pub target_epoch_days: f64,
    /// Hard cap on total accelerators.
    pub max_total_accelerators: u64,
}

impl PlanSearchRequest {
    /// Search the full registry at the domain's default subbatch with
    /// 2-microbatch pipelining, like `/v1/plan`'s defaults.
    pub fn registry_default(domain: Domain, target_epoch_days: f64, max_total: u64) -> Self {
        PlanSearchRequest {
            domain,
            accels: Accelerator::registry()
                .into_iter()
                .map(|(k, a)| (k.to_string(), a))
                .collect(),
            subbatches: vec![domain.default_subbatch()],
            microbatches: vec![2],
            target_epoch_days,
            max_total_accelerators: max_total,
        }
    }
}

/// The usable-memory fraction the server plans against (swap threshold).
pub const PLAN_USABLE_MEM_FRACTION: f64 = 0.8;

/// Split a footprint into just enough equal layer stages that one stage
/// fits comfortably (90% of usable) in `usable` bytes of memory — the same
/// synthetic stage construction `/v1/plan` has always used, now shared by
/// every profile of the search.
pub fn synthetic_stages(footprint_bytes: f64, usable: f64) -> Vec<Stage> {
    let n_stages = ((footprint_bytes / (usable * 0.9)).ceil() as usize).max(1);
    (0..n_stages)
        .map(|i| Stage {
            name: format!("stage{i}"),
            weight_bytes: footprint_bytes * 0.5 / n_stages as f64,
            activation_bytes: footprint_bytes * 0.5 / n_stages as f64,
        })
        .collect()
}

/// Build the joint [`SearchSpace`] for a request: the frontier-scale model
/// of the domain, characterized once per subbatch through the symbolic
/// engine, costed per accelerator by the roofline.
pub fn plan_search_space(req: &PlanSearchRequest) -> SearchSpace {
    let _span = obs::span("analysis.plan_search_space")
        .with_arg("domain", req.domain.key())
        .with_arg("accels", req.accels.len() as u64)
        .with_arg("subbatches", req.subbatches.len() as u64);
    let projection = scaling_for(req.domain).project();
    let cfg = frontier_config(req.domain);
    let engine = FamilyEngine::global();
    let labels_per_sample = engine.labels_per_sample(&cfg);
    // One symbolic characterization per subbatch, batched over the rayon
    // pool; each accelerator then re-prices the same point via its own
    // roofline, so the expensive model math is not repeated per device.
    let jobs: Vec<(ModelConfig, u64)> = req.subbatches.iter().map(|&b| (cfg, b)).collect();
    let points = engine.characterize_many(&jobs);
    let mut profiles = Vec::with_capacity(req.accels.len() * points.len());
    for (key, accel) in &req.accels {
        let usable = accel.mem_capacity * PLAN_USABLE_MEM_FRACTION;
        for point in &points {
            let step_time = roofline_time(point.flops_per_step, point.bytes_per_step, accel);
            profiles.push(CandidateProfile {
                accel_key: key.clone(),
                accel: accel.clone(),
                subbatch: point.subbatch,
                step: WorkerStep {
                    compute_seconds: step_time.seconds,
                    alg_flops: point.flops_per_step,
                    // f32 weights under SGD: one gradient word per parameter.
                    gradient_bytes: 4.0 * point.params,
                    samples_per_step: (point.subbatch * labels_per_sample) as f64,
                },
                footprint_bytes: point.footprint_bytes,
                stages: synthetic_stages(point.footprint_bytes, usable),
            });
        }
    }
    SearchSpace {
        profiles,
        dataset_samples: projection.target_data_samples,
        target_epoch_days: req.target_epoch_days,
        usable_mem_fraction: PLAN_USABLE_MEM_FRACTION,
        worker_candidates: parsim::pow2_candidates(req.max_total_accelerators),
        microbatch_candidates: req.microbatches.clone(),
        max_total_accelerators: req.max_total_accelerators,
        hop_overhead: CommConfig::default().hop_overhead,
    }
}

/// Run the pruned plan search for a request.
pub fn plan_search(req: &PlanSearchRequest) -> SearchResult {
    parsim::search(&plan_search_space(req))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_stages_fit_and_cover() {
        let usable = 25.6e9;
        let stages = synthetic_stages(113.8e9, usable);
        assert!(stages.len() > 1);
        let total: f64 = stages
            .iter()
            .map(|s| s.weight_bytes + s.activation_bytes)
            .sum();
        assert!((total - 113.8e9).abs() < 1.0, "stages cover the footprint");
        for s in &stages {
            assert!(s.weight_bytes + s.activation_bytes <= usable * 0.9 + 1.0);
        }
        assert_eq!(synthetic_stages(1e9, usable).len(), 1);
    }

    #[test]
    fn resnet_registry_search_is_feasible_and_consistent() {
        let req = PlanSearchRequest::registry_default(Domain::ImageClassification, 7.0, 16_384);
        let space = plan_search_space(&req);
        assert_eq!(space.profiles.len(), 4, "one profile per registry part");
        let result = parsim::search(&space);
        assert_eq!(result.feasible, parsim::enumerate_naive(&space));
        let best = result.best.expect("a 7-day ResNet plan exists");
        assert!(best.plan.epoch_days <= 7.0);
        // Faster parts can't be absent from the frontier: with every other
        // dimension shared, at least one non-V100 point must survive.
        assert!(result.feasible.iter().any(|p| p.accel_key != "v100"));
    }

    #[test]
    fn newer_accelerator_never_plans_slower_per_step() {
        // Same model, same subbatch: the A100 profile's roofline step time
        // is no worse than the V100's, so its best feasible plan at equal
        // worker count steps at least as fast.
        let req = PlanSearchRequest::registry_default(Domain::ImageClassification, 30.0, 4_096);
        let space = plan_search_space(&req);
        let by_key = |k: &str| {
            space
                .profiles
                .iter()
                .find(|p| p.accel_key == k)
                .expect("registry profile")
        };
        assert!(by_key("a100").step.compute_seconds <= by_key("v100").step.compute_seconds);
        assert!(by_key("h100").step.compute_seconds <= by_key("a100").step.compute_seconds);
    }
}
