//! Differential suite for `parsim::infer_search`: the pruned SLO search
//! must be bit-identical — same points, same `f64`s — to the naive
//! enumeration oracle over randomized serving spaces, its counters must
//! account for every lattice point, and a hand-built golden space must
//! produce the hand-checked argmin plan.

use parsim::{
    enumerate_infer_naive, infer_plan_point, infer_search, pareto_frontier_reference, InferProfile,
    InferSearchSpace, SloTarget,
};
use proptest::prelude::*;
use roofline::Accelerator;

fn profile(key: &str, batch: u64, prefill_ms: f64, step_ms: f64, mem_gb: f64) -> InferProfile {
    InferProfile {
        accel_key: key.to_string(),
        accel: Accelerator::by_key(key).expect("registry key"),
        batch,
        prefill_seconds: prefill_ms / 1e3,
        decode_step_seconds: step_ms / 1e3,
        mem_bytes: mem_gb * 1e9,
    }
}

/// A golden space small enough to check by hand (worked in the comments).
fn golden_space() -> InferSearchSpace {
    InferSearchSpace {
        profiles: vec![
            // v100 @ batch 16: 10 ms step → 1600 tok/s per replica.
            profile("v100", 16, 40.0, 10.0, 10.0),
            // v100 @ batch 64: 25 ms step → 2560 tok/s per replica.
            profile("v100", 64, 60.0, 25.0, 14.0),
            // v100 @ batch 256: 80 ms step — misses the 50 ms token SLO.
            profile("v100", 256, 120.0, 80.0, 26.0),
            // a100 @ batch 64: 12 ms step → ~5333 tok/s per replica.
            profile("a100", 64, 30.0, 12.0, 14.0),
            // a100 @ batch 256: 40 ms step but 90 GB — over the A100's
            // 80 GiB × 0.8 usable memory.
            profile("a100", 256, 80.0, 40.0, 90.0),
        ],
        replica_candidates: vec![1, 2, 4, 8, 16],
        max_total_accelerators: 16,
        usable_mem_fraction: 0.8,
        slo: SloTarget {
            p99_token_seconds: 0.050,
            ttft_seconds: 0.250,
        },
        target_tokens_per_s: 10_000.0,
    }
}

#[test]
fn golden_space_produces_the_hand_checked_plan() {
    let space = golden_space();
    let result = infer_search(&space);

    // Hand count. Surviving profiles and their minimal feasible replicas:
    //   v100@16 (1600/replica): needs 8 → {8, 16}
    //   v100@64 (2560/replica): needs 4 → {4, 8, 16}
    //   a100@64 (5333/replica): needs 2 → {2, 4, 8, 16}
    // v100@256 dies on the latency floor, a100@256 on memory.
    assert_eq!(result.feasible.len(), 2 + 3 + 4);
    assert_eq!(result.stats.pruned_latency, 5, "v100@256's whole ladder");
    assert_eq!(result.stats.pruned_memory, 5, "a100@256's whole ladder");
    assert_eq!(result.stats.considered, 25);
    assert_eq!(result.stats.evaluated, 15);

    // The argmin is 2 × a100@64: fewest accelerators of any feasible point.
    let best = result.best.expect("feasible");
    assert_eq!(best.accel_key, "a100");
    assert_eq!(best.batch, 64);
    assert_eq!(best.replicas, 2);
    assert_eq!(best.total_accelerators, 2);
    // Its numbers are exactly the shared point evaluation's.
    assert_eq!(best, infer_plan_point(&space.profiles[3], 2));
    assert_eq!(best.tokens_per_s, 2.0 * 64.0 / 0.012);
    assert_eq!(best.p99_token_seconds, 0.012);
    assert_eq!(best.ttft_seconds, 0.030 + 0.012);
}

#[test]
fn golden_space_is_bit_identical_to_naive() {
    let space = golden_space();
    let result = infer_search(&space);
    assert_eq!(result.feasible, enumerate_infer_naive(&space));
    assert_eq!(result.pareto, pareto_frontier_reference(&result.feasible));
}

#[test]
fn infeasible_everywhere_is_empty_for_both_paths() {
    let mut space = golden_space();
    space.slo.ttft_seconds = 1e-9;
    let result = infer_search(&space);
    assert!(result.feasible.is_empty());
    assert!(result.pareto.is_empty());
    assert!(result.best.is_none());
    assert!(enumerate_infer_naive(&space).is_empty());
}

fn arb_profile() -> impl Strategy<Value = InferProfile> {
    (
        prop_oneof![Just("v100"), Just("a100"), Just("h100"), Just("tpu-v3")],
        0u32..9,
        1u64..400,
        1u64..3000,
        1u64..200,
    )
        .prop_map(|(key, batch_pow, prefill_ms, step_us, mem_gb)| {
            profile(
                key,
                1 << batch_pow,
                prefill_ms as f64,
                step_us as f64 / 10.0,
                mem_gb as f64,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over randomized spaces: pruned ≡ naive bitwise, the sweep Pareto
    /// frontier ≡ the all-pairs reference, and the counters account for
    /// every lattice point exactly once.
    #[test]
    fn randomized_spaces_prune_exactly(
        profiles in proptest::collection::vec(arb_profile(), 1..12),
        ladder_len in 1usize..8,
        max_total in 1u64..200,
        tpot_ms in 1u64..200,
        ttft_ms in 1u64..2000,
        target_kilo_tokens in 0u64..100,
    ) {
        let space = InferSearchSpace {
            profiles,
            replica_candidates: (0..ladder_len as u32).map(|i| 1u64 << i).collect(),
            max_total_accelerators: max_total,
            usable_mem_fraction: 0.8,
            slo: SloTarget {
                p99_token_seconds: tpot_ms as f64 / 1e3,
                ttft_seconds: ttft_ms as f64 / 1e3,
            },
            target_tokens_per_s: target_kilo_tokens as f64 * 1e3,
        };
        let result = infer_search(&space);
        prop_assert_eq!(&result.feasible, &enumerate_infer_naive(&space));
        prop_assert_eq!(
            &result.pareto,
            &pareto_frontier_reference(&result.feasible)
        );
        let s = result.stats;
        prop_assert_eq!(
            s.considered,
            s.evaluated + s.pruned_memory + s.pruned_latency + s.pruned_over_cap
        );
        prop_assert_eq!(
            s.considered,
            (space.profiles.len() * space.replica_candidates.len()) as u64
        );
        // Determinism: a second run is identical.
        prop_assert_eq!(result, infer_search(&space));
    }
}
