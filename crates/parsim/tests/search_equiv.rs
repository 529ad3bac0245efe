//! Differential suite for `parsim::search`: the pruned search must be
//! bit-identical — same plans, same `f64` times — to (a) the naive
//! enumeration oracle and (b) a triple loop over `planner::plan`, and the
//! V100-only search must reproduce the existing Table 5 golden plan
//! exactly.

use parsim::{
    enumerate_naive, plan, pow2_candidates, search, CandidateProfile, CommConfig, ModelParallelism,
    Plan, PlanRequest, SearchPoint, SearchSpace, Stage, WorkerStep,
};
use roofline::Accelerator;

fn gb(x: f64) -> f64 {
    x * 1e9
}

/// The §6 case study as a planning problem — copied from the planner's own
/// golden fixture so the two suites pin the same point.
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

/// A search space holding exactly the case study on the given accelerators.
fn case_study_space(target_days: f64, accels: &[(&str, Accelerator)]) -> SearchSpace {
    let req = case_study_request(target_days);
    let profiles = accels
        .iter()
        .map(|(key, accel)| CandidateProfile {
            accel_key: key.to_string(),
            accel: accel.clone(),
            subbatch: 128,
            step: req.step,
            footprint_bytes: req.footprint_bytes,
            stages: req.stages.clone(),
        })
        .collect();
    SearchSpace {
        profiles,
        dataset_samples: req.dataset_samples,
        target_epoch_days: target_days,
        usable_mem_fraction: req.usable_mem_fraction,
        worker_candidates: req.worker_candidates.clone(),
        microbatch_candidates: vec![2],
        max_total_accelerators: u64::MAX,
        hop_overhead: CommConfig::default().hop_overhead,
    }
}

/// Combine per-request planner answers with the planner's own comparison
/// (fewest total accelerators, ties to higher utilization).
fn fold_best(candidates: impl IntoIterator<Item = Option<Plan>>) -> Option<Plan> {
    let mut best: Option<Plan> = None;
    for candidate in candidates.into_iter().flatten() {
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
    }
    best
}

#[test]
fn golden_v100_search_reproduces_table5_plan() {
    let accel = Accelerator::v100_like();
    let comm = CommConfig::default();
    let expected = plan(&case_study_request(7.5), &accel, &comm).expect("planner feasible");
    // The planner's golden shape (same assertions as its own suite).
    assert_eq!(expected.mp_ways, 4);
    assert!((512..=4096).contains(&expected.total_accelerators));

    let space = case_study_space(7.5, &[("v100", accel)]);
    let result = search(&space);
    let best = result.best.expect("search feasible");
    assert_eq!(best.accel_key, "v100");
    assert_eq!(
        best.parallelism,
        ModelParallelism::LayerPipeline { microbatches: 2 }
    );
    // Bit-identical: every integer and every f64 of the plan, via PartialEq.
    assert_eq!(best.plan, expected);
}

#[test]
fn pruned_search_is_bit_identical_to_naive_enumeration() {
    let registry: Vec<(&str, Accelerator)> = Accelerator::registry();
    for days in [0.5, 3.0, 7.5, 30.0, 365.0] {
        let mut space = case_study_space(days, &registry);
        let fast = search(&space);
        assert_eq!(fast.feasible, enumerate_naive(&space), "days={days}");

        // Again with an aggressive fleet cap so the cap prune fires.
        space.max_total_accelerators = 256;
        let capped = search(&space);
        assert_eq!(
            capped.feasible,
            enumerate_naive(&space),
            "capped days={days}"
        );
        assert!(capped
            .feasible
            .iter()
            .all(|p| p.plan.total_accelerators <= 256));
    }
}

#[test]
fn search_matches_triple_loop_over_planner() {
    // Triple loop: accelerator × microbatch option × (the planner's own
    // worker/ways scan). The pruned search over the joint space must land
    // on the identical argmin plan, f64-for-f64.
    let registry: Vec<(&str, Accelerator)> = Accelerator::registry();
    let micros = [1u64, 2, 4];
    for days in [2.0, 7.5, 45.0] {
        let mut space = case_study_space(days, &registry);
        space.microbatch_candidates = micros.to_vec();
        let result = search(&space);

        let comm_for = |a: &Accelerator| CommConfig {
            link_bw: a.interconnect_bw,
            hop_overhead: space.hop_overhead,
        };
        let oracle = fold_best(registry.iter().flat_map(|(_, accel)| {
            micros.map(|m| {
                let mut req = case_study_request(days);
                req.model_parallelism = ModelParallelism::LayerPipeline { microbatches: m };
                plan(&req, accel, &comm_for(accel))
            })
        }));
        assert_eq!(result.best.map(|p| p.plan), oracle, "days={days}");
    }
}

#[test]
fn infeasible_everywhere_is_none_for_both_paths() {
    let space = case_study_space(1e-4, &Accelerator::registry());
    let result = search(&space);
    assert!(result.feasible.is_empty());
    assert!(result.best.is_none());
    assert!(result.pareto.is_empty());
    assert!(enumerate_naive(&space).is_empty());
}

#[test]
fn pareto_and_best_are_consistent_with_the_feasible_set() {
    let mut space = case_study_space(7.5, &Accelerator::registry());
    space.microbatch_candidates = vec![1, 2, 4];
    let result = search(&space);
    assert!(!result.feasible.is_empty());
    let contains = |p: &SearchPoint| result.feasible.contains(p);
    assert!(result.pareto.iter().all(contains));
    assert!(contains(result.best.as_ref().expect("feasible")));
    // The argmin achieves the minimum fleet size over the feasible set.
    // (It need not sit on the 3-axis Pareto frontier: its utilization
    // tie-break can pick a point a same-size, faster-epoch point dominates.)
    let best = result.best.expect("feasible");
    let min_total = result
        .feasible
        .iter()
        .map(|p| p.plan.total_accelerators)
        .min()
        .expect("nonempty");
    assert_eq!(best.plan.total_accelerators, min_total);
    // Larger worker ladders only extend the feasible set.
    let mut wider = space.clone();
    wider.worker_candidates = pow2_candidates(1 << 16);
    let wide = search(&wider);
    assert!(result.feasible.iter().all(|p| wide.feasible.contains(p)));
}

/// A worker ladder that climbs to 2^63 under a cap of `u64::MAX`: the
/// two-way pipeline's top rung is a fleet of 2^64 accelerators. That
/// product overflows `u64`, so it is over every cap, on both paths.
#[test]
fn fleet_cap_is_exact_where_the_fleet_size_overflows() {
    let stages = vec![
        Stage {
            name: "a".into(),
            weight_bytes: gb(4.0),
            activation_bytes: gb(2.0),
        },
        Stage {
            name: "b".into(),
            weight_bytes: gb(2.0),
            activation_bytes: gb(2.0),
        },
    ];
    let space = SearchSpace {
        profiles: vec![CandidateProfile {
            accel_key: "v100".into(),
            accel: Accelerator::v100_like(),
            subbatch: 64,
            step: WorkerStep {
                compute_seconds: 1.0,
                alg_flops: 10e12,
                gradient_bytes: gb(1.0),
                samples_per_step: 1024.0,
            },
            footprint_bytes: gb(10.0),
            stages,
        }],
        dataset_samples: 1e9,
        target_epoch_days: 365.0,
        usable_mem_fraction: 0.8,
        worker_candidates: pow2_candidates(u64::MAX),
        microbatch_candidates: vec![2],
        max_total_accelerators: u64::MAX,
        hop_overhead: CommConfig::default().hop_overhead,
    };
    let result = search(&space);
    assert!(!result.feasible.is_empty());
    for p in &result.feasible {
        assert_eq!(
            p.plan.total_accelerators,
            p.plan.dp_workers.checked_mul(p.plan.mp_ways).unwrap(),
            "{p:?}"
        );
    }
    assert_eq!(result.feasible, enumerate_naive(&space));
    // Only the pipeline variant's 2^63 rung is over the cap.
    assert_eq!(result.stats.pruned_over_cap, 1);
}
