//! Layer-wise model parallelism and embedding sharding (paper §6.2.2).

/// One layer-parallel stage: a contiguous slice of the model placed on one
//  accelerator.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Stage label ("embedding", "lstm0", …).
    pub name: String,
    /// Weight + weight-gradient bytes resident on the stage.
    pub weight_bytes: f64,
    /// Peak activation bytes while the stage runs.
    pub activation_bytes: f64,
}

impl Stage {
    /// Total per-accelerator footprint of the stage.
    pub fn footprint_bytes(&self) -> f64 {
        self.weight_bytes + self.activation_bytes
    }
}

/// Result of applying layer parallelism to one data-parallel worker.
#[derive(Clone, Debug)]
pub struct LayerParallelPlan {
    /// Per-stage footprints in bytes, in stage order.
    pub stage_footprints: Vec<f64>,
    /// Wall-clock compute time of one training step, seconds.
    pub step_compute_seconds: f64,
    /// Accelerators per data-parallel worker.
    pub accels_per_worker: u64,
}

/// Pipeline a step of total compute time `compute_seconds` over `stages.len()`
/// stages with `microbatches` in flight (paper §6.2.2; GPipe-style schedule).
///
/// With `K` stages and `M` microbatches, a balanced pipeline runs in
/// `(M + K − 1)/M · C/K` — a speedup of `K·M/(M+K−1)` over sequential
/// execution. `microbatches = 1` degenerates to strictly sequential layer
/// execution (no speedup, memory relief only).
pub fn layer_parallel_plan(
    stages: &[Stage],
    compute_seconds: f64,
    microbatches: u64,
) -> LayerParallelPlan {
    assert!(!stages.is_empty() && microbatches >= 1);
    let k = stages.len() as f64;
    let m = microbatches as f64;
    let step_compute_seconds = compute_seconds / k * ((m + k - 1.0) / m);
    LayerParallelPlan {
        stage_footprints: stages.iter().map(Stage::footprint_bytes).collect(),
        step_compute_seconds,
        accels_per_worker: stages.len() as u64,
    }
}

/// Shard the single largest weight tensor (the embedding, in the paper's
/// case study) into `pieces` equal parts and greedily re-assign the parts to
/// the stages with the smallest current footprint. Returns the new per-stage
/// footprints.
///
/// Mirrors §6.2.2: "split the embedding layer into 3 pieces and locate two
/// smaller parts in the memories of accelerators that perform recurrent
/// layer computations", evening out per-accelerator footprints.
pub fn shard_largest_weight(stages: &[Stage], pieces: u64) -> Vec<f64> {
    assert!(pieces >= 1 && !stages.is_empty());
    let heaviest = stages
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.weight_bytes
                .partial_cmp(&b.1.weight_bytes)
                .expect("finite weights")
        })
        .map(|(i, _)| i)
        .expect("nonempty");
    let shard = stages[heaviest].weight_bytes / pieces as f64;
    let mut footprints: Vec<f64> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i == heaviest {
                s.activation_bytes + shard // keeps one piece
            } else {
                s.footprint_bytes()
            }
        })
        .collect();
    for _ in 1..pieces {
        let lightest = footprints
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        footprints[lightest] += shard;
    }
    footprints
}

/// Shard the single largest weight tensor across the stages by
/// *waterfilling*: unequal pieces sized to equalize per-stage footprints
/// (the optimal continuous split). Reproduces the paper's
/// `{60,17,17,32} → {32,31,31,32}` GB exactly: the level settles where the
/// freed weight just tops up the lighter stages.
pub fn waterfill_largest_weight(stages: &[Stage]) -> Vec<f64> {
    assert!(!stages.is_empty());
    let heaviest = stages
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.weight_bytes
                .partial_cmp(&b.1.weight_bytes)
                .expect("finite weights")
        })
        .map(|(i, _)| i)
        .expect("nonempty");
    let water = stages[heaviest].weight_bytes;
    // Base footprints with the heavy weight lifted out of its stage.
    let bases: Vec<f64> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i == heaviest {
                s.activation_bytes
            } else {
                s.footprint_bytes()
            }
        })
        .collect();
    // Find the fill level L: sum over stages of max(0, L − base) = water.
    let mut order: Vec<usize> = (0..bases.len()).collect();
    order.sort_by(|&a, &b| bases[a].partial_cmp(&bases[b]).expect("finite"));
    let mut remaining = water;
    let mut level = bases[order[0]];
    for rank in 0..order.len() {
        let active = rank as f64 + 1.0;
        let next = order
            .get(rank + 1)
            .map(|&j| bases[j])
            .unwrap_or(f64::INFINITY);
        let capacity = (next - level) * active;
        if capacity >= remaining || next.is_infinite() {
            level += remaining / active;
            remaining = 0.0;
            break;
        }
        remaining -= capacity;
        level = next;
    }
    debug_assert!(remaining.abs() < 1e-6 * water.max(1.0) || remaining == 0.0);
    bases.iter().map(|&b| b.max(level)).collect()
}

/// Maximum per-accelerator footprint, bytes.
pub fn peak_footprint(footprints: &[f64]) -> f64 {
    footprints.iter().fold(0.0, |a, &b| a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(x: f64) -> f64 {
        x * 1e9
    }

    /// The §6 case-study stages: embedding-heavy stage plus two recurrent
    /// stages and the projection/output stage ({60, 17, 17, 32} GB of
    /// Table 5 before sharding).
    fn case_study_stages() -> Vec<Stage> {
        vec![
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
                name: "proj+out".into(),
                weight_bytes: gb(13.0),
                activation_bytes: gb(19.0),
            },
        ]
    }

    #[test]
    fn sequential_pipeline_gives_no_speedup() {
        let plan = layer_parallel_plan(&case_study_stages(), 17.07, 1);
        assert!((plan.step_compute_seconds - 17.07).abs() < 1e-9);
        assert_eq!(plan.accels_per_worker, 4);
    }

    #[test]
    fn infinite_microbatches_approach_k_times_speedup() {
        let plan = layer_parallel_plan(&case_study_stages(), 16.0, 10_000);
        assert!((plan.step_compute_seconds - 4.0).abs() < 0.01);
    }

    #[test]
    fn two_microbatches_match_case_study_speedup() {
        // K = 4, M = 2 → step compute = C·5/8 ≈ 1.6× speedup, the paper's
        // Table 5 regime (7.2 days from 11.1 days).
        let plan = layer_parallel_plan(&case_study_stages(), 17.07, 2);
        let speedup = 17.07 / plan.step_compute_seconds;
        assert!((speedup - 1.6).abs() < 0.01, "speedup {speedup}");
    }

    #[test]
    fn sharding_evens_footprints_like_table5() {
        // Table 5: {60, 17, 17, 32} GB → {32, 31, 31, 32} GB after splitting
        // the embedding into 3 pieces.
        let stages = case_study_stages();
        let before: Vec<f64> = stages.iter().map(Stage::footprint_bytes).collect();
        assert!((peak_footprint(&before) - gb(60.0)).abs() < gb(1.0));
        let after = shard_largest_weight(&stages, 3);
        let peak = peak_footprint(&after);
        assert!(
            peak < gb(37.0),
            "post-shard peak {} GB should be near-even",
            peak / 1e9
        );
        // Total memory is conserved.
        let sum_before: f64 = before.iter().sum();
        let sum_after: f64 = after.iter().sum();
        assert!((sum_before - sum_after).abs() < 1.0);
    }

    #[test]
    fn waterfill_reproduces_paper_footprints_exactly() {
        // {60, 17, 17, 32} GB → {32, 31.3, 31.3, 32} GB: the level sits at
        // (59.5 + 0.5 + 17 + 17)/3 — paper Table 5's final row, rounded.
        let after = waterfill_largest_weight(&case_study_stages());
        let expected_level = (59.5 + 0.5 + 17.0 + 17.0) / 3.0 * 1e9;
        assert!((after[0] - expected_level).abs() < 1e6, "emb {}", after[0]);
        assert!((after[1] - expected_level).abs() < 1e6);
        assert!((after[2] - expected_level).abs() < 1e6);
        assert!((after[3] - gb(32.0)).abs() < 1e6, "out {}", after[3]);
        // Peak is the untouched heaviest base: exactly the paper's 32 GB.
        assert!((peak_footprint(&after) - gb(32.0)).abs() < 1e6);
        // Mass conserved.
        let total_before: f64 = case_study_stages().iter().map(Stage::footprint_bytes).sum();
        let total_after: f64 = after.iter().sum();
        assert!((total_before - total_after).abs() < 1e3);
    }

    #[test]
    fn waterfill_beats_equal_pieces() {
        let stages = case_study_stages();
        let equal = peak_footprint(&shard_largest_weight(&stages, 3));
        let water = peak_footprint(&waterfill_largest_weight(&stages));
        assert!(water <= equal + 1.0);
    }

    #[test]
    fn waterfill_on_uniform_stages_levels_exactly() {
        let stages: Vec<Stage> = (0..4)
            .map(|i| Stage {
                name: format!("s{i}"),
                weight_bytes: if i == 0 { gb(40.0) } else { gb(10.0) },
                activation_bytes: gb(2.0),
            })
            .collect();
        let after = waterfill_largest_weight(&stages);
        // Total = 40 + 3·12 + 2 = 78 GB over 4 stages → 19.5 GB each.
        for f in &after {
            assert!((f - gb(19.5)).abs() < 1e3, "{f}");
        }
    }

    #[test]
    fn sharding_into_one_piece_is_identity() {
        let stages = case_study_stages();
        let after = shard_largest_weight(&stages, 1);
        let before: Vec<f64> = stages.iter().map(Stage::footprint_bytes).collect();
        for (a, b) in after.iter().zip(before.iter()) {
            assert!((a - b).abs() < 1.0);
        }
    }

    #[test]
    fn pipeline_speedup_bounded_by_stage_count() {
        for m in [1u64, 2, 4, 16, 256] {
            let plan = layer_parallel_plan(&case_study_stages(), 10.0, m);
            let speedup = 10.0 / plan.step_compute_seconds;
            assert!(speedup <= 4.0 + 1e-9);
            assert!(speedup >= 1.0 - 1e-9);
        }
    }
}
