//! Property tests for `parsim::search` plan invariants: memory feasibility,
//! Pareto non-domination, thread-count determinism, and monotonicity in
//! accelerator peak FLOP/s.

use proptest::prelude::*;

use parsim::{
    enumerate_naive, pow2_candidates, search, split_variants, CandidateProfile, CommConfig,
    SearchPoint, SearchSpace, Stage, WorkerStep,
};
use roofline::{roofline_time, Accelerator};

#[derive(Clone, Debug)]
struct ArbProfile {
    flops_mult: f64,
    bw_mult: f64,
    mem_gib: f64,
    interconnect: f64,
    alg_flops: f64,
    alg_bytes: f64,
    gradient_bytes: f64,
    samples_per_step: f64,
    stage_bytes: Vec<(f64, f64)>,
}

fn arb_profile() -> impl Strategy<Value = ArbProfile> {
    (
        (
            0.2f64..8.0,   // peak-FLOP/s multiplier on the V100 base
            0.5f64..4.0,   // bandwidth multiplier
            8.0f64..128.0, // HBM GiB
            (10e9f64..300e9),
        ),
        (
            1e12f64..2e15, // algorithmic FLOPs per step
            1e11f64..5e13, // algorithmic bytes per step
            1e9f64..60e9,  // gradient bytes
            1e2f64..1e4,   // samples per step
        ),
        proptest::collection::vec((0.5f64..40.0, 0.5f64..40.0), 1..5),
    )
        .prop_map(
            |(
                (flops_mult, bw_mult, mem_gib, interconnect),
                (alg_flops, alg_bytes, gradient_bytes, samples_per_step),
                stage_bytes,
            )| ArbProfile {
                flops_mult,
                bw_mult,
                mem_gib,
                interconnect,
                alg_flops,
                alg_bytes,
                gradient_bytes,
                samples_per_step,
                stage_bytes,
            },
        )
}

/// Materialize a profile: the accelerator is a scaled V100, the step's
/// compute time comes from the roofline (so FLOP/s monotonicity is a real
/// end-to-end property, not an assumption on hand-typed numbers).
fn build_profile(key: &str, p: &ArbProfile) -> CandidateProfile {
    let mut accel = Accelerator::v100_like();
    accel.name = format!("prop-{key}");
    accel.peak_flops *= p.flops_mult;
    accel.peak_mem_bw *= p.bw_mult;
    accel.mem_capacity = p.mem_gib * (1u64 << 30) as f64;
    accel.interconnect_bw = p.interconnect;
    let stages: Vec<Stage> = p
        .stage_bytes
        .iter()
        .enumerate()
        .map(|(i, &(w, a))| Stage {
            name: format!("s{i}"),
            weight_bytes: w * 1e9,
            activation_bytes: a * 1e9,
        })
        .collect();
    let footprint_bytes: f64 = stages
        .iter()
        .map(|s| s.weight_bytes + s.activation_bytes)
        .sum();
    CandidateProfile {
        accel_key: key.to_string(),
        subbatch: 64,
        step: WorkerStep {
            compute_seconds: roofline_time(p.alg_flops, p.alg_bytes, &accel).seconds,
            alg_flops: p.alg_flops,
            gradient_bytes: p.gradient_bytes,
            samples_per_step: p.samples_per_step,
        },
        footprint_bytes,
        stages,
        accel,
    }
}

fn build_space(
    profiles: Vec<CandidateProfile>,
    dataset: f64,
    days: f64,
    cap_pow: u32,
    micros: Vec<u64>,
) -> SearchSpace {
    let cap = 1u64 << cap_pow;
    SearchSpace {
        profiles,
        dataset_samples: dataset,
        target_epoch_days: days,
        usable_mem_fraction: 0.8,
        worker_candidates: pow2_candidates(cap),
        microbatch_candidates: micros,
        max_total_accelerators: cap,
        hop_overhead: CommConfig::default().hop_overhead,
    }
}

fn arb_space() -> impl Strategy<Value = SearchSpace> {
    (
        proptest::collection::vec(arb_profile(), 1..4),
        1e8f64..1e11,
        0.1f64..90.0,
        6u32..14,
        proptest::collection::vec(1u64..16, 1..3),
    )
        .prop_map(|(arbs, dataset, days, cap_pow, micros)| {
            let profiles = arbs
                .iter()
                .enumerate()
                .map(|(i, p)| build_profile(&format!("accel{i}"), p))
                .collect();
            build_space(profiles, dataset, days, cap_pow, micros)
        })
}

fn dominates(p: &SearchPoint, q: &SearchPoint) -> bool {
    let (a, b) = (&p.plan, &q.plan);
    a.epoch_days <= b.epoch_days
        && a.total_accelerators <= b.total_accelerators
        && a.mem_per_accel_gb <= b.mem_per_accel_gb
        && (a.epoch_days < b.epoch_days
            || a.total_accelerators < b.total_accelerators
            || a.mem_per_accel_gb < b.mem_per_accel_gb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every plan the search returns fits its accelerator's usable HBM —
    /// checked against the exact per-variant footprint, not the rounded GB
    /// report — and respects the fleet cap and the deadline.
    #[test]
    fn every_returned_plan_is_feasible(space in arb_space()) {
        let result = search(&space);
        for point in &result.feasible {
            let profile = space
                .profiles
                .iter()
                .find(|p| p.accel_key == point.accel_key)
                .expect("point's profile exists");
            let usable = profile.accel.mem_capacity * space.usable_mem_fraction;
            let variants = split_variants(
                &profile.stages,
                profile.footprint_bytes,
                profile.step.compute_seconds,
                &space.microbatch_candidates,
            );
            let variant = variants
                .iter()
                .find(|v| v.parallelism == point.parallelism)
                .expect("point's variant exists");
            prop_assert!(variant.mem_per_accel <= usable, "footprint over HBM");
            prop_assert!(point.plan.total_accelerators <= space.max_total_accelerators);
            prop_assert!(point.plan.epoch_days <= space.target_epoch_days);
            prop_assert_eq!(
                point.plan.total_accelerators,
                point.plan.dp_workers * point.plan.mp_ways
            );
        }
    }

    /// No point on the returned Pareto frontier is dominated by any
    /// feasible point (frontier membership is global, not frontier-local).
    #[test]
    fn pareto_contains_no_dominated_point(space in arb_space()) {
        let result = search(&space);
        for p in &result.pareto {
            for q in &result.feasible {
                prop_assert!(!dominates(q, p), "{q:?} dominates frontier point {p:?}");
            }
        }
        // And every non-frontier feasible point IS dominated by someone.
        for q in &result.feasible {
            if !result.pareto.contains(q) {
                prop_assert!(
                    result.feasible.iter().any(|p| dominates(p, q)),
                    "{q:?} undominated but off the frontier"
                );
            }
        }
    }

    /// The search returns identical results — every plan, every f64 —
    /// whatever thread count the environment asks for, and matches the
    /// sequential naive oracle. The search walks its profiles sequentially
    /// into one feasible `Vec`; this pins that no pool setting leaks into
    /// the answer. Checked on the generated space and on a
    /// profile-replicated blowup past 16,384 lattice points.
    #[test]
    fn search_is_deterministic_across_thread_counts(space in arb_space()) {
        let mut big = space.clone();
        let ladder = space.worker_candidates.len() * (1 + space.microbatch_candidates.len());
        let replicas = 16_384 / (space.profiles.len() * ladder) + 1;
        big.profiles = (0..replicas * space.profiles.len())
            .map(|i| {
                let mut p = space.profiles[i % space.profiles.len()].clone();
                p.accel_key = format!("{}-r{}", p.accel_key, i / space.profiles.len());
                p
            })
            .collect();
        for s in [&space, &big] {
            let naive = enumerate_naive(s);
            let mut results = Vec::new();
            for threads in ["1", "2", "5"] {
                std::env::set_var("RAYON_SHIM_THREADS", threads);
                results.push(search(s));
            }
            std::env::remove_var("RAYON_SHIM_THREADS");
            prop_assert_eq!(&results[0], &results[1]);
            prop_assert_eq!(&results[1], &results[2]);
            prop_assert_eq!(&results[0].feasible, &naive);
        }
    }

    /// The counters account for every lattice point: each one is either
    /// priced or removed by exactly one prune, and the lattice is every
    /// profile's variants times the worker ladder.
    #[test]
    fn counters_account_for_every_lattice_point(space in arb_space()) {
        let s = search(&space).stats;
        prop_assert_eq!(
            s.considered,
            s.evaluated + s.pruned_memory + s.pruned_over_cap + s.pruned_comm_bound
        );
        let variants: usize = space
            .profiles
            .iter()
            .map(|p| {
                split_variants(
                    &p.stages,
                    p.footprint_bytes,
                    p.step.compute_seconds,
                    &space.microbatch_candidates,
                )
                .len()
            })
            .sum();
        prop_assert_eq!(
            s.considered,
            (variants * space.worker_candidates.len()) as u64
        );
    }

    /// The sorted-sweep Pareto frontier is bit-identical to the all-pairs
    /// reference on every feasible set the search can produce.
    #[test]
    fn pareto_sweep_matches_reference(space in arb_space()) {
        let result = search(&space);
        prop_assert_eq!(
            result.pareto,
            parsim::pareto_frontier_reference(&result.feasible)
        );
    }

    /// Raising ONLY the accelerator's peak FLOP/s never increases any
    /// matching plan's step time, and never shrinks the feasible set.
    #[test]
    fn more_peak_flops_never_slows_a_plan(
        arb in arb_profile(),
        dataset in 1e8f64..1e11,
        days in 0.1f64..90.0,
        boost in 1.0f64..16.0,
    ) {
        let slow = build_profile("base", &arb);
        let mut fast_arb = arb.clone();
        fast_arb.flops_mult *= boost;
        let fast = build_profile("base", &fast_arb);
        // Only the compute peak moved; memory and interconnect identical.
        prop_assert_eq!(slow.accel.mem_capacity, fast.accel.mem_capacity);
        prop_assert_eq!(slow.accel.interconnect_bw, fast.accel.interconnect_bw);
        prop_assert!(fast.step.compute_seconds <= slow.step.compute_seconds);

        let micros = vec![2u64];
        let slow_space = build_space(vec![slow], dataset, days, 10, micros.clone());
        let fast_space = build_space(vec![fast], dataset, days, 10, micros);
        let slow_result = search(&slow_space);
        let fast_result = search(&fast_space);

        let key = |p: &SearchPoint| (p.parallelism, p.plan.dp_workers);
        for sp in &slow_result.feasible {
            let matching = fast_result
                .feasible
                .iter()
                .find(|fp| key(fp) == key(sp));
            // Feasibility is monotone: a faster part keeps every plan.
            prop_assert!(matching.is_some(), "plan lost on faster part: {sp:?}");
            let fp = matching.expect("present");
            prop_assert!(
                fp.plan.step_seconds <= sp.plan.step_seconds,
                "step time rose with peak FLOP/s: {} -> {}",
                sp.plan.step_seconds,
                fp.plan.step_seconds
            );
        }
    }
}
