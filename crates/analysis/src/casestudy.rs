//! The §6 word-LM case study (Table 5): step-by-step parallelization of a
//! frontier word LM from one accelerator to 2048.

use cgraph::{footprint, Scheduler, TensorKind};
use modelzoo::{build_word_lm, ModelGraph, WordLmConfig};
use parsim::{
    data_parallel_point, layer_parallel_plan, ring_allreduce_seconds, waterfill_largest_weight,
    CommConfig, Stage, WorkerStep,
};
use roofline::{per_op_step_time, step_time, to_days, Accelerator, CacheModel};

/// One optimization stage of Table 5.
#[derive(Clone, Debug)]
pub struct CaseStudyRow {
    /// Stage label.
    pub stage: &'static str,
    /// Total accelerators.
    pub accelerators: u64,
    /// Global batch size (samples per step across the fleet).
    pub global_batch: u64,
    /// Memory required per accelerator, GB (max over stages when
    /// model-parallel).
    pub mem_per_accel_gb: f64,
    /// Per-stage footprints when layer-parallel (single entry otherwise).
    pub stage_footprints_gb: Vec<f64>,
    /// Days per epoch.
    pub days_per_epoch: f64,
    /// Algorithmic FLOP utilization.
    pub flop_utilization: f64,
}

/// Full Table 5 output.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    /// The LSTM-p configuration used.
    pub config: WordLmConfig,
    /// Trainable parameters of the model.
    pub params: f64,
    /// Words in the frontier dataset.
    pub dataset_words: f64,
    /// The optimization stages, in Table 5 order.
    pub rows: Vec<CaseStudyRow>,
}

/// The paper's algorithmically-optimized baseline (§6.1): Jozefowicz-style
/// big LSTM with projection and full vocabulary.
pub fn lstm_p_config() -> WordLmConfig {
    WordLmConfig {
        vocab: 793_471,
        hidden: 8192,
        layers: 2,
        seq_len: 80,
        projection: Some(1024),
        tied_embedding: false,
    }
}

fn gb(bytes: f64) -> f64 {
    bytes / 1e9
}

/// Partition the model's weights (and their gradients) into the paper's four
/// layer-parallel stages: embedding, the two recurrent layers, and the
/// projection + output head. Activations are attributed by which stage
/// produces them.
fn stages_from_graph(model: &ModelGraph, batch: u64) -> Vec<Stage> {
    let bindings = model.bindings_with_batch(batch);
    let mut weights = [0.0f64; 4];
    for t in model.graph.tensors() {
        if t.kind != TensorKind::Weight {
            continue;
        }
        let bytes = t.bytes_u64(&bindings).expect("bound") as f64 * 2.0; // + gradient
        let stage = if t.name.starts_with("embedding") {
            0
        } else if t.name.starts_with("lstm0") {
            1
        } else if t.name.starts_with("lstm1") {
            2
        } else {
            3 // projection, output, biases
        };
        weights[stage] += bytes;
    }
    // Activation memory: the non-persistent share of the footprint,
    // attributed to the stages that create it (recurrent layers and the
    // output head dominate; the embedding stage only gathers).
    let fp = footprint(&model.graph, &bindings, Scheduler::Best).expect("bound");
    let activations = (fp.peak_bytes as f64 - fp.persistent_bytes as f64).max(0.0);
    let act_share = [0.05, 0.325, 0.325, 0.30];
    ["embedding", "lstm0", "lstm1", "proj+out"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| Stage {
            name: name.into(),
            weight_bytes: weights[i],
            activation_bytes: activations * act_share[i],
        })
        .collect()
}

/// Run the full Table 5 pipeline.
pub fn word_lm_case_study(accel: &Accelerator, comm: &CommConfig) -> CaseStudy {
    let _span = obs::span("analysis.case_study").with_arg("model", "lstm-p");
    let cfg = lstm_p_config();
    let subbatch = 128u64;
    let model = obs::time("modelzoo.build_training", || {
        build_word_lm(&cfg).into_training()
    });
    let bindings = model.bindings_with_batch(subbatch);
    let stats = model.graph.stats().eval(&bindings).expect("bound");
    let fp = footprint(&model.graph, &bindings, Scheduler::Best).expect("bound");
    let fp_gb = gb(fp.peak_bytes as f64);

    // The frontier word-LM dataset (Table 1 projection: ≈77B words).
    let dataset_words = scaling::scaling_for(modelzoo::Domain::WordLm)
        .project()
        .target_data_samples;
    let samples_per_step = model.samples_per_step(subbatch);
    let epoch_days = |step_seconds: f64, workers: u64| -> f64 {
        to_days(dataset_words / (workers as f64 * samples_per_step) * step_seconds)
    };

    let mut rows = Vec::new();

    // Row 1: best-case whole-graph roofline on one accelerator.
    let best = step_time(&stats, accel);
    rows.push(CaseStudyRow {
        stage: "Best-case (Roofline) Baseline",
        accelerators: 1,
        global_batch: subbatch,
        mem_per_accel_gb: fp_gb,
        stage_footprints_gb: vec![fp_gb],
        days_per_epoch: epoch_days(best.seconds, 1),
        flop_utilization: best.flop_utilization,
    });

    // Row 2: cache-hierarchy-aware per-op timing.
    let aware =
        per_op_step_time(&model.graph, &bindings, accel, CacheModel::PanelStream).expect("bound");
    rows.push(CaseStudyRow {
        stage: "Cache-hierarchy-aware Baseline",
        accelerators: 1,
        global_batch: subbatch,
        mem_per_accel_gb: fp_gb,
        stage_footprints_gb: vec![fp_gb],
        days_per_epoch: epoch_days(aware.seconds, 1),
        flop_utilization: aware.flop_utilization,
    });

    // Rows 3–4: data parallelism at 1024 and 512 workers.
    let worker = WorkerStep {
        compute_seconds: aware.seconds,
        alg_flops: stats.flops,
        gradient_bytes: 4.0 * stats.params,
        samples_per_step,
    };
    for (label, n) in [
        ("w/ Data Parallelism (Option 1)", 1024u64),
        ("w/ Data Parallelism (Option 2)", 512),
    ] {
        let p = data_parallel_point(&worker, n, dataset_words, accel, comm);
        rows.push(CaseStudyRow {
            stage: label,
            accelerators: n,
            global_batch: subbatch * n,
            mem_per_accel_gb: fp_gb,
            stage_footprints_gb: vec![fp_gb],
            days_per_epoch: p.epoch_days,
            flop_utilization: p.flop_utilization,
        });
    }

    // Row 5: add 4-way layer parallelism on top of the 512-worker option.
    let stages = stages_from_graph(&model, subbatch);
    let plan = layer_parallel_plan(&stages, aware.seconds, 2);
    // Emit the GPipe-style schedule into the trace so the Chrome export
    // shows the per-stage microbatch timeline in simulated time.
    let per_stage = aware.seconds / stages.len() as f64;
    let (_, pipe_events) = parsim::simulate_pipeline_traced(&vec![per_stage; stages.len()], 2);
    let rec = obs::recorder();
    for ev in parsim::pipeline_trace_events(&pipe_events) {
        rec.record_raw(ev);
    }
    // Each stage allreduces its own weights with its 512 peers concurrently;
    // the step pays the slowest stage's reduction.
    let comm_seconds = stages
        .iter()
        .map(|s| ring_allreduce_seconds(s.weight_bytes / 2.0, 512, comm))
        .fold(0.0, f64::max);
    let lp_step = plan.step_compute_seconds + comm_seconds;
    let lp_util = stats.flops / (lp_step * accel.peak_flops) / plan.accels_per_worker as f64;
    let footprints_gb: Vec<f64> = plan.stage_footprints.iter().map(|&b| gb(b)).collect();
    rows.push(CaseStudyRow {
        stage: "+ Layer Parallelism (4x)",
        accelerators: 512 * plan.accels_per_worker,
        global_batch: subbatch * 512,
        mem_per_accel_gb: footprints_gb.iter().fold(0.0, |a, &b| a.max(b)),
        stage_footprints_gb: footprints_gb,
        days_per_epoch: epoch_days(lp_step, 512),
        flop_utilization: lp_util,
    });

    // Row 6: shard the embedding across the other stages (waterfilled —
    // the paper's unequal three-piece split that equalizes footprints).
    let sharded = waterfill_largest_weight(&stages);
    let sharded_gb: Vec<f64> = sharded.iter().map(|&b| gb(b)).collect();
    rows.push(CaseStudyRow {
        stage: "+ Shard the Embedding Layer",
        accelerators: 512 * plan.accels_per_worker,
        global_batch: subbatch * 512,
        mem_per_accel_gb: sharded_gb.iter().fold(0.0, |a, &b| a.max(b)),
        stage_footprints_gb: sharded_gb,
        days_per_epoch: epoch_days(lp_step, 512),
        flop_utilization: lp_util,
    });

    CaseStudy {
        config: cfg,
        params: stats.params,
        dataset_words,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> CaseStudy {
        word_lm_case_study(&Accelerator::v100_like(), &CommConfig::default())
    }

    #[test]
    fn lstm_p_has_about_8b_params() {
        let s = study();
        assert!(
            (s.params / 8.4e9 - 1.0).abs() < 0.1,
            "params {:.3e}",
            s.params
        );
    }

    #[test]
    fn baseline_is_compute_bound_at_high_utilization() {
        let s = study();
        let base = &s.rows[0];
        assert!(
            (base.flop_utilization - 0.8).abs() < 0.05,
            "baseline utilization {}",
            base.flop_utilization
        );
        // Footprint exceeds one accelerator's 32 GB by far (paper: 113.8 GB).
        assert!(
            base.mem_per_accel_gb > 60.0 && base.mem_per_accel_gb < 220.0,
            "footprint {} GB",
            base.mem_per_accel_gb
        );
    }

    #[test]
    fn cache_awareness_cuts_utilization() {
        let s = study();
        let (base, aware) = (&s.rows[0], &s.rows[1]);
        // Paper: 80% → 46%. Our panel model lands in the same regime.
        assert!(aware.flop_utilization < 0.85 * base.flop_utilization);
        assert!(
            aware.flop_utilization > 0.30 && aware.flop_utilization < 0.70,
            "cache-aware utilization {}",
            aware.flop_utilization
        );
        assert!(aware.days_per_epoch > base.days_per_epoch);
    }

    #[test]
    fn data_parallelism_reaches_single_digit_days() {
        let s = study();
        let dp1024 = &s.rows[2];
        assert_eq!(dp1024.accelerators, 1024);
        assert!(
            dp1024.days_per_epoch < 10.0,
            "1024-worker epoch {} days",
            dp1024.days_per_epoch
        );
        // Utilization declines vs the single-accelerator cache-aware row.
        assert!(dp1024.flop_utilization < s.rows[1].flop_utilization);
    }

    #[test]
    fn layer_parallelism_trades_utilization_for_memory() {
        let s = study();
        let (dp512, lp) = (&s.rows[3], &s.rows[4]);
        assert_eq!(lp.accelerators, 2048);
        // Faster than 512-worker DP but far less efficient per accelerator.
        assert!(lp.days_per_epoch < dp512.days_per_epoch);
        assert!(lp.flop_utilization < 0.5 * dp512.flop_utilization);
        // Per-accelerator footprint shrinks vs the whole model.
        assert!(lp.mem_per_accel_gb < dp512.mem_per_accel_gb);
    }

    #[test]
    fn embedding_shard_evens_footprints_under_capacity_pressure() {
        let s = study();
        let (lp, sharded) = (&s.rows[4], &s.rows[5]);
        assert!(sharded.mem_per_accel_gb < lp.mem_per_accel_gb);
        // After sharding the spread across stages is small (paper:
        // {32,31,31,32} GB).
        let spread = |fps: &[f64]| {
            let max = fps.iter().fold(0.0f64, |a, &b| a.max(b));
            let min = fps.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            max / min
        };
        let after = spread(&sharded.stage_footprints_gb);
        let before = spread(&lp.stage_footprints_gb);
        // Paper: {60,17,17,32} GB → {32,31,31,32} GB. Waterfilling evens
        // all stages up to the fill level, so the residual spread comes only
        // from any stage whose base already exceeds the level.
        assert!(after < 1.35, "post-shard spread {after}");
        assert!(
            after < before,
            "sharding should even footprints: {before} -> {after}"
        );
        // Same schedule, same time.
        assert_eq!(sharded.days_per_epoch, lp.days_per_epoch);
    }
}
