//! SLO-driven serving plan search: rank accelerator × decode-batch ×
//! replica-count configurations under latency constraints.
//!
//! The training-side [`search`](crate::search::search) optimizes a fleet
//! against an **epoch deadline**; a serving fleet is sized against a
//! **service-level objective** instead: a p99 per-token latency (time per
//! output token under saturated batching), a time-to-first-token bound, and
//! an aggregate token-throughput demand. The lattice is
//!
//! ```text
//! accelerator profile × decode batch size × replica count
//! ```
//!
//! with one accelerator per replica — the decode working set (weights + KV
//! cache) either fits one part's usable HBM or the profile is infeasible.
//!
//! ## Deterministic latency semantics
//!
//! The roofline model is deterministic, so percentiles collapse to worst
//! cases: under saturated continuous batching a token waits at most one
//! decode step, hence `p99_token_seconds = decode_step_seconds`, and the
//! first token of a request costs the prompt pass plus the step that emits
//! it, hence `ttft_seconds = prefill_seconds + decode_step_seconds`.
//!
//! ## Exactness contract
//!
//! [`infer_search`] is **bit-identical** to [`enumerate_infer_naive`] — the
//! same feasible points, the same `f64`s — because every prune only skips
//! points the naive filters also reject:
//!
//! * **memory** (KV-inclusive) — `mem_bytes > usable` is replica-independent,
//!   so one comparison rejects the profile's whole replica ladder; it is the
//!   comparison the naive path applies per point, hoisted.
//! * **latency floor** (the serving analogue of the training search's
//!   allreduce floor) — `decode_step_seconds` and `ttft_seconds` are
//!   replica-independent: adding replicas buys throughput, never latency.
//!   A profile that misses either SLO misses it at every replica count.
//! * **cap** — replica candidates ascend strictly, so the first
//!   `replicas > max_total_accelerators` ends the ladder (exact integers).
//!
//! The throughput demand is **not** pruned: it is applied as the identical
//! post-evaluation filter on both paths (replicas enter the feasibility
//! comparison, so hoisting it would require a monotonicity argument the
//! bit-identity contract doesn't need).
//!
//! Point evaluation ([`infer_plan_point`]) is one shared code path. The
//! frontier (the training search's sorted sweep, checked against its
//! all-pairs reference), argmin, cap cut and result type are the shared
//! [`lattice`](crate::lattice) core; profiles are walked sequentially.

use roofline::Accelerator;
use serde::{Deserialize, Serialize};

use crate::lattice::{assert_ascending, cap_cut, fits_cap, LatticeResult, Ranked};

/// One serving candidate: an accelerator running one model replica at one
/// decode batch size, characterized and roofline-priced upstream (see
/// `analysis::infer_search_space`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InferProfile {
    /// Registry key of the accelerator (see [`Accelerator::by_key`]).
    pub accel_key: String,
    /// The accelerator configuration.
    pub accel: Accelerator,
    /// Decode batch size (concurrent sequences per replica).
    pub batch: u64,
    /// Prompt (prefill) pass seconds for one batch at this batch size.
    pub prefill_seconds: f64,
    /// One decode step, seconds (each sequence emits one token).
    pub decode_step_seconds: f64,
    /// Resident bytes per replica: weights plus the batch's KV cache.
    pub mem_bytes: f64,
}

/// The serving SLO a plan must meet.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloTarget {
    /// p99 per-token latency bound, seconds (time per output token).
    pub p99_token_seconds: f64,
    /// Time-to-first-token bound, seconds.
    pub ttft_seconds: f64,
}

/// The joint serving search space.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InferSearchSpace {
    /// Accelerator × batch candidates.
    pub profiles: Vec<InferProfile>,
    /// Candidate replica counts, strictly ascending.
    pub replica_candidates: Vec<u64>,
    /// Hard cap on total accelerators (= replicas).
    pub max_total_accelerators: u64,
    /// Usable fraction of accelerator memory (swap threshold).
    pub usable_mem_fraction: f64,
    /// The latency SLO.
    pub slo: SloTarget,
    /// Aggregate fleet throughput demand, tokens/s.
    pub target_tokens_per_s: f64,
}

/// One evaluated serving configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InferPlanPoint {
    /// Accelerator registry key.
    pub accel_key: String,
    /// Decode batch size per replica.
    pub batch: u64,
    /// Model replicas (one accelerator each).
    pub replicas: u64,
    /// Total accelerators (= replicas).
    pub total_accelerators: u64,
    /// Aggregate throughput, tokens/s.
    pub tokens_per_s: f64,
    /// p99 per-token latency, seconds (one decode step — see module docs).
    pub p99_token_seconds: f64,
    /// Time to first token, seconds (prefill + one decode step).
    pub ttft_seconds: f64,
    /// Resident memory per accelerator, GB.
    pub mem_per_accel_gb: f64,
}

/// Enumeration/pruning counters (informational; not part of the exactness
/// contract).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferSearchStats {
    /// Lattice points in the space (profiles × replica counts).
    pub considered: u64,
    /// Points fully priced through [`infer_plan_point`].
    pub evaluated: u64,
    /// Points skipped because weights + KV overflow usable memory.
    pub pruned_memory: u64,
    /// Points skipped by the replica-independent latency floor.
    pub pruned_latency: u64,
    /// Points skipped because `replicas` exceeds the fleet cap.
    pub pruned_over_cap: u64,
}

/// Everything the serving search returns; the argmin's tie-break among
/// equal fleets is higher aggregate throughput.
pub type InferSearchResult = LatticeResult<InferPlanPoint, InferSearchStats>;

impl Ranked for InferPlanPoint {
    type Objectives = (u64, f64, f64);

    fn objectives(&self) -> (u64, f64, f64) {
        (
            self.total_accelerators,
            self.p99_token_seconds,
            self.mem_per_accel_gb,
        )
    }

    fn total_accelerators(&self) -> u64 {
        self.total_accelerators
    }

    fn tie_break(&self) -> f64 {
        self.tokens_per_s
    }
}

/// Price one lattice point: `replicas` copies of `profile`. The single
/// point-evaluation code path — [`infer_search`] and
/// [`enumerate_infer_naive`] both route through it.
pub fn infer_plan_point(profile: &InferProfile, replicas: u64) -> InferPlanPoint {
    let tokens_per_s = replicas as f64 * profile.batch as f64 / profile.decode_step_seconds;
    InferPlanPoint {
        accel_key: profile.accel_key.clone(),
        batch: profile.batch,
        replicas,
        total_accelerators: replicas,
        tokens_per_s,
        p99_token_seconds: profile.decode_step_seconds,
        ttft_seconds: profile.prefill_seconds + profile.decode_step_seconds,
        mem_per_accel_gb: profile.mem_bytes / 1e9,
    }
}

fn meets_slo(profile: &InferProfile, slo: &SloTarget) -> bool {
    profile.decode_step_seconds <= slo.p99_token_seconds
        && profile.prefill_seconds + profile.decode_step_seconds <= slo.ttft_seconds
}

/// Brute-force oracle: price **every** in-cap lattice point, then filter on
/// memory, the SLO, and the throughput demand. The differential suite and
/// the `inferbench` gate compare [`infer_search`] against this bit-for-bit.
pub fn enumerate_infer_naive(space: &InferSearchSpace) -> Vec<InferPlanPoint> {
    let mut out = Vec::new();
    for profile in &space.profiles {
        let usable = profile.accel.mem_capacity * space.usable_mem_fraction;
        for &replicas in &space.replica_candidates {
            if !fits_cap(replicas, 1, space.max_total_accelerators) {
                continue;
            }
            let point = infer_plan_point(profile, replicas);
            if profile.mem_bytes > usable
                || !meets_slo(profile, &space.slo)
                || point.tokens_per_s < space.target_tokens_per_s
            {
                continue;
            }
            out.push(point);
        }
    }
    out
}

/// Search the serving space with pruning. Bit-identical to
/// [`enumerate_infer_naive`] (see the module docs for why each prune is
/// exact).
pub fn infer_search(space: &InferSearchSpace) -> InferSearchResult {
    let mut span = obs::span("parsim.infer_search")
        .with_arg("profiles", space.profiles.len() as u64)
        .with_arg("replicas", space.replica_candidates.len() as u64);
    assert_ascending(&space.replica_candidates, "replica");
    let mut stats = InferSearchStats::default();
    let mut feasible = Vec::new();
    for profile in &space.profiles {
        let usable = profile.accel.mem_capacity * space.usable_mem_fraction;
        let candidates = space.replica_candidates.len() as u64;
        stats.considered += candidates;
        // Memory prune (KV-inclusive): replica-independent, so one
        // comparison rejects the whole replica ladder.
        if profile.mem_bytes > usable {
            stats.pruned_memory += candidates;
            continue;
        }
        // Latency floor: step and TTFT don't improve with replicas; a
        // profile missing the SLO misses it everywhere on the ladder.
        if !meets_slo(profile, &space.slo) {
            stats.pruned_latency += candidates;
            continue;
        }
        // Cap prune: candidates ascend, so the first overflow ends the
        // ladder.
        let in_cap = cap_cut(&space.replica_candidates, 1, space.max_total_accelerators);
        stats.pruned_over_cap += candidates - in_cap.len() as u64;
        for &replicas in in_cap {
            stats.evaluated += 1;
            let point = infer_plan_point(profile, replicas);
            // Throughput demand: identical filter to the naive path.
            if point.tokens_per_s < space.target_tokens_per_s {
                continue;
            }
            feasible.push(point);
        }
    }
    span.arg("considered", stats.considered);
    span.arg("evaluated", stats.evaluated);
    span.arg("pruned_memory", stats.pruned_memory);
    span.arg("pruned_latency", stats.pruned_latency);
    span.arg("pruned_over_cap", stats.pruned_over_cap);
    InferSearchResult::new(feasible, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{dominates, pareto_frontier_reference};

    fn gb(x: f64) -> f64 {
        x * 1e9
    }

    fn toy_profile(key: &str, accel: Accelerator, batch: u64, step_ms: f64) -> InferProfile {
        InferProfile {
            accel_key: key.into(),
            accel,
            batch,
            prefill_seconds: 0.08,
            decode_step_seconds: step_ms / 1e3,
            mem_bytes: gb(4.0) + batch as f64 * gb(0.05),
        }
    }

    fn toy_space() -> InferSearchSpace {
        InferSearchSpace {
            profiles: vec![
                toy_profile("v100", Accelerator::v100_like(), 8, 12.0),
                toy_profile("v100", Accelerator::v100_like(), 64, 30.0),
                toy_profile("a100", Accelerator::a100_like(), 64, 14.0),
                // Oversized batch: KV cache alone overflows 32 GiB usable.
                toy_profile("v100", Accelerator::v100_like(), 1024, 200.0),
            ],
            replica_candidates: vec![1, 2, 4, 8, 16, 32],
            max_total_accelerators: 32,
            usable_mem_fraction: 0.8,
            slo: SloTarget {
                p99_token_seconds: 0.050,
                ttft_seconds: 0.250,
            },
            target_tokens_per_s: 2_000.0,
        }
    }

    #[test]
    fn search_matches_naive_bitwise() {
        let space = toy_space();
        let result = infer_search(&space);
        let naive = enumerate_infer_naive(&space);
        assert_eq!(result.feasible, naive);
        assert!(!result.feasible.is_empty(), "toy space must be feasible");
    }

    #[test]
    fn memory_prune_is_kv_inclusive() {
        let result = infer_search(&toy_space());
        // The batch-1024 profile dies on memory before any replica pricing.
        assert!(result.stats.pruned_memory >= 6);
        assert!(result.feasible.iter().all(|p| p.batch <= 64));
    }

    #[test]
    fn latency_floor_prunes_whole_ladders() {
        let mut space = toy_space();
        space.slo.p99_token_seconds = 0.013; // only the 12 ms & a100 steps fit
        let result = infer_search(&space);
        assert!(result.stats.pruned_latency > 0);
        assert_eq!(result.feasible, enumerate_infer_naive(&space));
        assert!(result.feasible.iter().all(|p| p.p99_token_seconds <= 0.013));
    }

    #[test]
    fn throughput_demand_filters_but_never_prunes() {
        let mut space = toy_space();
        space.target_tokens_per_s = 1e9; // unreachable
        let result = infer_search(&space);
        assert!(result.feasible.is_empty());
        // Every in-cap point of surviving ladders was still priced.
        assert!(result.stats.evaluated > 0);
        assert_eq!(result.feasible, enumerate_infer_naive(&space));
    }

    #[test]
    fn pareto_and_argmin_are_consistent() {
        let result = infer_search(&toy_space());
        assert_eq!(result.pareto, pareto_frontier_reference(&result.feasible));
        for p in &result.pareto {
            assert!(!result.pareto.iter().any(|q| dominates(q, p)));
        }
        let best = result.best.expect("feasible space has an argmin");
        assert!(result.feasible.contains(&best));
        let min_total = result
            .feasible
            .iter()
            .map(|p| p.total_accelerators)
            .min()
            .unwrap();
        assert_eq!(best.total_accelerators, min_total);
    }

    #[test]
    fn cap_prune_is_exact() {
        let mut space = toy_space();
        space.max_total_accelerators = 4;
        space.target_tokens_per_s = 0.0;
        let result = infer_search(&space);
        assert!(result.stats.pruned_over_cap > 0);
        assert!(result.feasible.iter().all(|p| p.total_accelerators <= 4));
        assert_eq!(result.feasible, enumerate_infer_naive(&space));
    }

    #[test]
    fn repeated_searches_are_deterministic() {
        let space = toy_space();
        assert_eq!(infer_search(&space), infer_search(&space));
    }
}
