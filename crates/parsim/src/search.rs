//! Cluster plan search: rank accelerator × parallelism configurations.
//!
//! The paper's §6 case study hand-derives *one* parallelization of *one*
//! model on *one* V100-class part. [`plan`](crate::planner::plan) automates
//! that single point; this module turns it into a search engine over the
//! joint space
//!
//! ```text
//! accelerator profile × model-parallel variant (none | pipeline × microbatch)
//!                     × data-parallel worker count
//! ```
//!
//! pruning infeasible regions early and returning every feasible plan, the
//! Pareto frontier over `(epoch days, total accelerators, per-accelerator
//! footprint)`, and the planner-compatible argmin. The frontier, argmin,
//! cap cut and result type are the shared [`lattice`](crate::lattice) core.
//!
//! ## Exactness contract
//!
//! [`search`] is **bit-identical** to [`enumerate_naive`] — same feasible
//! points, same `f64`s — because every prune only skips points that the
//! naive filters would also reject:
//!
//! * **memory** — `mem_per_accel > usable` is the same comparison the naive
//!   path applies per point; it is hoisted out of the worker loop.
//! * **cap** — worker candidates ascend, so once
//!   `workers · ways > max_total_accelerators` every later candidate of the
//!   variant is over the cap too. The product is overflow-checked on both
//!   paths: a product past `u64::MAX` is over every cap.
//! * **allreduce-dominated** — the epoch time is computed as
//!   `D / (w·sps) · step_seconds / 86400` with `step_seconds =
//!   compute + comm ≥ comm`. f64 rounding is monotone, so replaying the
//!   identical expression with `comm` in place of `step_seconds` is a lower
//!   bound *in f64 arithmetic*, not just in exact math. When that floor
//!   already misses the deadline, the point is infeasible without pricing
//!   its compute at all.
//!
//! Point evaluation itself ([`plan_point`], [`split_variants`]) is shared
//! with [`plan`](crate::planner::plan), so there is exactly one enumeration
//! code path in the workspace; the differential suite
//! (`tests/search_equiv.rs`) pins search ≡ naive ≡ triple-looped planner.
//!
//! Profiles are walked sequentially, in order, into one feasible `Vec`, so
//! the result is deterministic and equal to the sequential oracle.

use roofline::Accelerator;
use serde::{Deserialize, Serialize};

use crate::allreduce::{ring_allreduce_seconds, CommConfig};
use crate::dataparallel::WorkerStep;
use crate::lattice::{assert_ascending, cap_cut, fits_cap, LatticeResult, Ranked};
use crate::modelparallel::{layer_parallel_plan, peak_footprint, waterfill_largest_weight, Stage};
use crate::planner::{ModelParallelism, Plan};

/// One accelerator-specific workload profile: how one worker's training step
/// behaves on this part (the per-accelerator inputs the §6 case study
/// derives by hand).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CandidateProfile {
    /// Registry key of the accelerator (see [`Accelerator::by_key`]).
    pub accel_key: String,
    /// The accelerator configuration.
    pub accel: Accelerator,
    /// Per-worker subbatch this profile was characterized at.
    pub subbatch: u64,
    /// One worker's step profile on this accelerator at this subbatch.
    pub step: WorkerStep,
    /// Unsplit per-worker training-step footprint, bytes.
    pub footprint_bytes: f64,
    /// Layer-parallel stages for footprint splitting; must be non-empty.
    pub stages: Vec<Stage>,
}

/// The joint search space.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Accelerator × subbatch candidates.
    pub profiles: Vec<CandidateProfile>,
    /// Dataset size, samples.
    pub dataset_samples: f64,
    /// Epoch deadline, days.
    pub target_epoch_days: f64,
    /// Usable fraction of accelerator memory (swap threshold).
    pub usable_mem_fraction: f64,
    /// Candidate data-parallel worker counts, strictly ascending.
    pub worker_candidates: Vec<u64>,
    /// In-flight microbatch counts for the layer-pipeline variants.
    pub microbatch_candidates: Vec<u64>,
    /// Hard cap on `workers · ways`.
    pub max_total_accelerators: u64,
    /// Per-hop allreduce overhead, seconds; link bandwidth comes from each
    /// profile's accelerator.
    pub hop_overhead: f64,
}

impl SearchSpace {
    /// The communication model a profile's fleet runs over: the profile
    /// accelerator's interconnect at the space's hop overhead.
    pub fn comm_for(&self, accel: &Accelerator) -> CommConfig {
        CommConfig {
            link_bw: accel.interconnect_bw,
            hop_overhead: self.hop_overhead,
        }
    }
}

/// One evaluated configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchPoint {
    /// Accelerator registry key.
    pub accel_key: String,
    /// Per-worker subbatch.
    pub subbatch: u64,
    /// Model-parallel strategy of the point.
    pub parallelism: ModelParallelism,
    /// The evaluated plan.
    pub plan: Plan,
}

/// Enumeration/pruning counters (informational; not part of the exactness
/// contract).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Lattice points in the space (profiles × variants × worker counts).
    pub considered: u64,
    /// Points fully priced through [`plan_point`].
    pub evaluated: u64,
    /// Points skipped because the variant overflows per-accelerator memory.
    pub pruned_memory: u64,
    /// Points skipped because `workers · ways` exceeds the cap.
    pub pruned_over_cap: u64,
    /// Points skipped by the allreduce-dominated epoch floor.
    pub pruned_comm_bound: u64,
}

/// Everything the search returns; the argmin's tie-break among equal
/// fleets is higher FLOP utilization.
pub type SearchResult = LatticeResult<SearchPoint, SearchStats>;

impl Ranked for SearchPoint {
    type Objectives = (f64, u64, f64);

    fn objectives(&self) -> (f64, u64, f64) {
        let p = &self.plan;
        (p.epoch_days, p.total_accelerators, p.mem_per_accel_gb)
    }

    fn total_accelerators(&self) -> u64 {
        self.plan.total_accelerators
    }

    fn tie_break(&self) -> f64 {
        self.plan.flop_utilization
    }
}

/// Per-accelerator memory and compute cost of one model-parallel variant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VariantCost {
    /// The strategy this variant prices.
    pub parallelism: ModelParallelism,
    /// Accelerators per data-parallel worker.
    pub ways: u64,
    /// Peak per-accelerator footprint under the split, bytes.
    pub mem_per_accel: f64,
    /// Wall-clock compute seconds of one step under the split.
    pub compute_seconds: f64,
}

/// The model-parallel variants of one profile, in canonical order: the
/// unsplit model first, then one layer-pipeline variant per microbatch
/// count (only when there is more than one stage to split over). The
/// pipeline variants waterfill the heaviest weight across stages — the
/// paper's embedding-sharding move, applied automatically.
pub fn split_variants(
    stages: &[Stage],
    footprint_bytes: f64,
    compute_seconds: f64,
    microbatches: &[u64],
) -> Vec<VariantCost> {
    assert!(!stages.is_empty(), "search needs at least one stage");
    let mut variants = vec![VariantCost {
        parallelism: ModelParallelism::None,
        ways: 1,
        mem_per_accel: footprint_bytes,
        compute_seconds,
    }];
    if stages.len() > 1 {
        let peak = peak_footprint(&waterfill_largest_weight(stages));
        for &micro in microbatches {
            let lp = layer_parallel_plan(stages, compute_seconds, micro);
            variants.push(VariantCost {
                parallelism: ModelParallelism::LayerPipeline {
                    microbatches: micro,
                },
                ways: stages.len() as u64,
                mem_per_accel: peak,
                compute_seconds: lp.step_compute_seconds,
            });
        }
    }
    variants
}

fn plan_point_with_comm(
    step: &WorkerStep,
    variant: &VariantCost,
    workers: u64,
    dataset_samples: f64,
    peak_flops: f64,
    comm_seconds: f64,
) -> Plan {
    let step_seconds = variant.compute_seconds + comm_seconds;
    let epoch_days =
        dataset_samples / (workers as f64 * step.samples_per_step) * step_seconds / 86_400.0;
    let utilization = step.alg_flops / (step_seconds * peak_flops) / variant.ways as f64;
    Plan {
        dp_workers: workers,
        mp_ways: variant.ways,
        total_accelerators: workers * variant.ways,
        step_seconds,
        epoch_days,
        flop_utilization: utilization,
        mem_per_accel_gb: variant.mem_per_accel / 1e9,
    }
}

/// Price one lattice point: `workers` data-parallel replicas of `variant`,
/// each stage allreducing its gradient shard over the ring. This is the
/// single point-evaluation code path — [`plan`](crate::planner::plan),
/// [`search`], and [`enumerate_naive`] all route through it.
pub fn plan_point(
    step: &WorkerStep,
    variant: &VariantCost,
    workers: u64,
    dataset_samples: f64,
    peak_flops: f64,
    comm: &CommConfig,
) -> Plan {
    let comm_seconds =
        ring_allreduce_seconds(step.gradient_bytes / variant.ways as f64, workers, comm);
    plan_point_with_comm(
        step,
        variant,
        workers,
        dataset_samples,
        peak_flops,
        comm_seconds,
    )
}

/// Powers of two `1, 2, 4, … ≤ limit` — the canonical data-parallel worker
/// ladder (always contains at least `1`).
pub fn pow2_candidates(limit: u64) -> Vec<u64> {
    let mut out = vec![1u64];
    while let Some(&last) = out.last() {
        match last.checked_mul(2) {
            Some(next) if next <= limit => out.push(next),
            _ => break,
        }
    }
    out
}

fn profile_variants(space: &SearchSpace, profile: &CandidateProfile) -> Vec<VariantCost> {
    split_variants(
        &profile.stages,
        profile.footprint_bytes,
        profile.step.compute_seconds,
        &space.microbatch_candidates,
    )
}

/// Brute-force oracle: price **every** in-cap lattice point, then filter on
/// memory and the deadline. Quadratic amounts of wasted work by design —
/// the differential suite and the `plansearch` bench compare [`search`]
/// against this bit-for-bit.
pub fn enumerate_naive(space: &SearchSpace) -> Vec<SearchPoint> {
    let mut out = Vec::new();
    for profile in &space.profiles {
        let usable = profile.accel.mem_capacity * space.usable_mem_fraction;
        let comm = space.comm_for(&profile.accel);
        for variant in profile_variants(space, profile) {
            for &workers in &space.worker_candidates {
                if !fits_cap(workers, variant.ways, space.max_total_accelerators) {
                    continue;
                }
                let plan = plan_point(
                    &profile.step,
                    &variant,
                    workers,
                    space.dataset_samples,
                    profile.accel.peak_flops,
                    &comm,
                );
                if variant.mem_per_accel > usable || plan.epoch_days > space.target_epoch_days {
                    continue;
                }
                out.push(SearchPoint {
                    accel_key: profile.accel_key.clone(),
                    subbatch: profile.subbatch,
                    parallelism: variant.parallelism,
                    plan,
                });
            }
        }
    }
    out
}

fn search_profile(
    space: &SearchSpace,
    profile: &CandidateProfile,
    feasible: &mut Vec<SearchPoint>,
    stats: &mut SearchStats,
) {
    let _span = obs::span("parsim.search_profile")
        .with_arg("accel", profile.accel_key.as_str())
        .with_arg("subbatch", profile.subbatch);
    let usable = profile.accel.mem_capacity * space.usable_mem_fraction;
    let comm = space.comm_for(&profile.accel);
    for variant in profile_variants(space, profile) {
        let candidates = space.worker_candidates.len() as u64;
        stats.considered += candidates;
        // Memory prune: the footprint is worker-count independent, so one
        // comparison rejects the variant's whole worker ladder.
        if variant.mem_per_accel > usable {
            stats.pruned_memory += candidates;
            continue;
        }
        // Cap prune: candidates ascend, so the first overflow ends the
        // ladder.
        let in_cap = cap_cut(
            &space.worker_candidates,
            variant.ways,
            space.max_total_accelerators,
        );
        stats.pruned_over_cap += candidates - in_cap.len() as u64;
        for &workers in in_cap {
            // Allreduce-dominated prune: replay the epoch expression with
            // the comm term alone — a lower bound in f64 (see module docs).
            let comm_seconds = ring_allreduce_seconds(
                profile.step.gradient_bytes / variant.ways as f64,
                workers,
                &comm,
            );
            let comm_epoch_floor = space.dataset_samples
                / (workers as f64 * profile.step.samples_per_step)
                * comm_seconds
                / 86_400.0;
            if comm_epoch_floor > space.target_epoch_days {
                stats.pruned_comm_bound += 1;
                continue;
            }
            stats.evaluated += 1;
            let plan = plan_point_with_comm(
                &profile.step,
                &variant,
                workers,
                space.dataset_samples,
                profile.accel.peak_flops,
                comm_seconds,
            );
            if plan.epoch_days > space.target_epoch_days {
                continue;
            }
            feasible.push(SearchPoint {
                accel_key: profile.accel_key.clone(),
                subbatch: profile.subbatch,
                parallelism: variant.parallelism,
                plan,
            });
        }
    }
}

/// Search the joint space with pruning, profile by profile. Bit-identical
/// to [`enumerate_naive`] (see the module docs for why each prune is
/// exact).
pub fn search(space: &SearchSpace) -> SearchResult {
    let mut span = obs::span("parsim.search")
        .with_arg("profiles", space.profiles.len() as u64)
        .with_arg("workers", space.worker_candidates.len() as u64);
    assert_ascending(&space.worker_candidates, "worker");
    let mut stats = SearchStats::default();
    let mut feasible = Vec::new();
    for profile in &space.profiles {
        search_profile(space, profile, &mut feasible, &mut stats);
    }
    span.arg("considered", stats.considered);
    span.arg("evaluated", stats.evaluated);
    span.arg("pruned_memory", stats.pruned_memory);
    span.arg("pruned_over_cap", stats.pruned_over_cap);
    span.arg("pruned_comm_bound", stats.pruned_comm_bound);
    SearchResult::new(feasible, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{dominates, pareto_frontier, pareto_frontier_reference};

    fn gb(x: f64) -> f64 {
        x * 1e9
    }

    fn toy_profile(key: &str, accel: Accelerator) -> CandidateProfile {
        let stages = vec![
            Stage {
                name: "a".into(),
                weight_bytes: gb(20.0),
                activation_bytes: gb(2.0),
            },
            Stage {
                name: "b".into(),
                weight_bytes: gb(4.0),
                activation_bytes: gb(6.0),
            },
        ];
        CandidateProfile {
            accel_key: key.into(),
            accel,
            subbatch: 64,
            step: WorkerStep {
                compute_seconds: 2.0,
                alg_flops: 20e12,
                gradient_bytes: gb(8.0),
                samples_per_step: 4096.0,
            },
            footprint_bytes: gb(32.0),
            stages,
        }
    }

    fn toy_space() -> SearchSpace {
        SearchSpace {
            profiles: vec![
                toy_profile("v100", Accelerator::v100_like()),
                toy_profile("a100", Accelerator::a100_like()),
            ],
            dataset_samples: 3e9,
            target_epoch_days: 5.0,
            usable_mem_fraction: 0.8,
            worker_candidates: pow2_candidates(1 << 12),
            microbatch_candidates: vec![1, 2, 4],
            max_total_accelerators: 4096,
            hop_overhead: CommConfig::default().hop_overhead,
        }
    }

    #[test]
    fn search_matches_naive_bitwise() {
        let space = toy_space();
        let result = search(&space);
        let naive = enumerate_naive(&space);
        assert_eq!(result.feasible, naive);
        assert!(!result.feasible.is_empty(), "toy space must be feasible");
    }

    #[test]
    fn pareto_has_no_dominated_point_and_best_is_feasible() {
        let result = search(&toy_space());
        for p in &result.pareto {
            assert!(
                !result.pareto.iter().any(|q| dominates(q, p)),
                "dominated point on frontier: {p:?}"
            );
        }
        let best = result.best.expect("feasible space has an argmin");
        assert!(result.feasible.contains(&best));
        // The argmin minimizes total accelerators over the feasible set.
        let min_total = result
            .feasible
            .iter()
            .map(|p| p.plan.total_accelerators)
            .min()
            .expect("nonempty");
        assert_eq!(best.plan.total_accelerators, min_total);
    }

    #[test]
    fn cap_and_memory_prunes_fire() {
        let mut space = toy_space();
        space.max_total_accelerators = 8;
        let result = search(&space);
        assert!(result.stats.pruned_over_cap > 0);
        assert!(result
            .feasible
            .iter()
            .all(|p| p.plan.total_accelerators <= 8));
        // A 32 GB unsplit footprint cannot fit 0.8 × 32 GiB, so the
        // ways=1 variant of the V100 profile is memory-pruned.
        assert!(result.stats.pruned_memory > 0);
        assert_eq!(result.feasible, enumerate_naive(&space));
    }

    #[test]
    fn comm_floor_prunes_hopeless_deadlines() {
        let mut space = toy_space();
        space.target_epoch_days = 0.02; // tighter than the allreduce alone
        let result = search(&space);
        assert!(result.stats.pruned_comm_bound > 0);
        assert_eq!(result.feasible, enumerate_naive(&space));
    }

    #[test]
    fn pareto_sweep_matches_the_reference() {
        let result = search(&toy_space());
        assert_eq!(
            result.pareto,
            pareto_frontier_reference(&result.feasible),
            "sweep frontier diverges from the all-pairs oracle"
        );
        // Exact duplicate points survive on both paths.
        let mut doubled = result.feasible.clone();
        doubled.extend(result.feasible.iter().cloned());
        assert_eq!(
            pareto_frontier(&doubled),
            pareto_frontier_reference(&doubled)
        );
        assert!(pareto_frontier::<SearchPoint>(&[]).is_empty());
    }

    #[test]
    fn pow2_candidates_cover_the_cap() {
        assert_eq!(pow2_candidates(1), vec![1]);
        assert_eq!(pow2_candidates(9), vec![1, 2, 4, 8]);
        assert_eq!(pow2_candidates(16), vec![1, 2, 4, 8, 16]);
        let all = pow2_candidates(u64::MAX);
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn repeated_searches_are_deterministic() {
        let space = toy_space();
        let a = search(&space);
        let b = search(&space);
        assert_eq!(a, b);
    }
}
